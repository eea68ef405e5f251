//===- analyzer/PatternInterner.cpp ---------------------------------------===//

#include "analyzer/PatternInterner.h"

#include "analyzer/Domain.h"

using namespace awam;

PatternInterner::PatternInterner(int DepthLimit, const Domain *Dom)
    : DepthLimit(DepthLimit), Dom(Dom ? Dom : &defaultDomain()) {}

PatternId PatternInterner::intern(const PatternRef &P) {
  PatternId NewId = static_cast<PatternId>(Recs.size());
  PatternId Id = Buckets.findOrInsert(
      mixHash(P.hash()), NewId, [&](PatternId I) { return pattern(I) == P; });
  if (Id != NewId) {
    ++Stats.InternHits;
    return Id;
  }
  ++Stats.InternMisses;
  Rec R;
  R.NodeB = static_cast<uint32_t>(ArenaNodes.size());
  R.NodeN = static_cast<uint32_t>(P.NumNodes);
  R.ChildB = static_cast<uint32_t>(ArenaChildren.size());
  R.ChildN = static_cast<uint32_t>(childSlotsOf(P));
  R.RootB = static_cast<uint32_t>(ArenaRoots.size());
  R.RootN = static_cast<uint32_t>(P.NumRoots);
  ArenaNodes.insert(ArenaNodes.end(), P.Nodes, P.Nodes + P.NumNodes);
  ArenaChildren.insert(ArenaChildren.end(), P.ChildStore,
                       P.ChildStore + R.ChildN);
  ArenaRoots.insert(ArenaRoots.end(), P.Roots, P.Roots + P.NumRoots);
  Recs.push_back(R);
  return Id;
}

PatternId PatternInterner::internNormalized(const Pattern &P) {
  LubScratch S{Scratch, Ctx, CellOfBuf, RootsA, RootsB, CellArgs};
  Dom->normalizeEntry(P, DepthLimit, S, PatBuf);
  return intern(PatBuf);
}

PatternId PatternInterner::lub(PatternId A, PatternId B) {
  if (A == B) {
    ++Stats.LubCacheHits; // x lub x = x needs no table
    return A;
  }
  // lub is commutative: key the memo on the unordered pair.
  PatternId Lo = A < B ? A : B, Hi = A < B ? B : A;
  uint32_t NewPos = static_cast<uint32_t>(LubRecs.size());
  uint32_t Pos = LubMemo.findOrInsert(
      mixHash((static_cast<uint64_t>(Lo) << 32) | Hi), NewPos,
      [&](uint32_t I) { return LubRecs[I].A == Lo && LubRecs[I].B == Hi; });
  if (Pos != NewPos) {
    ++Stats.LubCacheHits;
    return LubRecs[Pos].Result;
  }
  ++Stats.LubCacheMisses;
  // Recorded before the lub runs so the memo's ids stay dense; the
  // domain hook below interns but never consults the memo.
  LubRecs.push_back({Lo, Hi, kInvalidPatternId});
  LubScratch S{Scratch, Ctx, CellOfBuf, RootsA, RootsB, CellArgs};
  Dom->lubInto(pattern(A), pattern(B), DepthLimit, S, PatBuf);
  PatternId R = intern(PatBuf);
  LubRecs[Pos].Result = R;
  return R;
}
