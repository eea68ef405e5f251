//===- tests/IncrementalTest.cpp - Incremental re-analysis tests ----------===//
//
// AnalysisSession::reanalyze() — which always runs through the session's
// AnalysisStore — must be invisible in the result: on every edit, the
// re-analysis — table, counters, formatted report — is byte-identical to
// a from-scratch analyze() of the edited program, while replaying (not
// executing) the activations the edit did not disturb. This suite pins
// that identity on all Table 1 benchmarks, on chained edits, and on
// randomized clause-level edit sequences, plus the replay-savings
// acceptance bar (strictly fewer executed activations than scratch on
// most benchmarks) and a bound on the store across chained edits.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Session.h"
#include "programs/Benchmarks.h"
#include "RandomProgramGen.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace awam;

namespace {

AnalyzerOptions incOptions() {
  AnalyzerOptions O;
  O.Persistent = true;
  return O;
}

/// Everything the identity contract covers: the formatted reports plus
/// the schedule counters. Probe and interner statistics are
/// deliberately absent (replay probes the table less; the report does not
/// print them).
std::string fingerprint(const AnalysisResult &R, const SymbolTable &Syms) {
  std::string F = formatAnalysis(R, Syms);
  F += formatModes(R, Syms);
  F += "\niters=" + std::to_string(R.Iterations);
  F += " conv=" + std::to_string(R.Converged);
  F += " instr=" + std::to_string(R.Instructions);
  F += " acts=" + std::to_string(R.Counters.ActivationRuns);
  F += " runs=" + std::to_string(R.Counters.SchedulerRuns);
  F += " edges=" + std::to_string(R.Counters.DepEdges);
  return F;
}

std::unique_ptr<CompiledProgram> compileOrDie(const std::string &Source,
                                              SymbolTable &Syms,
                                              TermArena &Arena) {
  Result<CompiledProgram> P = compileSource(Source, Syms, Arena);
  EXPECT_TRUE(P) << P.diag().str() << "\n--- source ---\n" << Source;
  if (!P)
    return nullptr;
  return std::make_unique<CompiledProgram>(P.take());
}

class IncrementalTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalTest, TouchEditIdentityOnAllBenchmarks) {
  // Re-analysis after marking main/0 edited (every benchmark defines it)
  // with the program unchanged: the report and counters must match the
  // original run exactly, and — since only main's own traces invalidate —
  // most of the drain must replay.
  int Checked = 0, StrictlyFewer = 0;
  uint64_t TotalReplayed = 0;
  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    SymbolTable Syms;
    TermArena Arena;
    std::unique_ptr<CompiledProgram> P =
        compileOrDie(std::string(B.Source), Syms, Arena);
    ASSERT_NE(P, nullptr) << B.Name;

    AnalysisSession S(*P, incOptions());
    Result<AnalysisResult> R0 = S.analyze(B.EntrySpec);
    ASSERT_TRUE(R0) << B.Name << ": " << R0.diag().str();

    Result<AnalysisResult> R1 = S.reanalyze({PredSig{"main", 0}});
    ASSERT_TRUE(R1) << B.Name << ": " << R1.diag().str();
    EXPECT_EQ(fingerprint(*R0, Syms), fingerprint(*R1, Syms)) << B.Name;

    ASSERT_NE(S.reanalyzeStats(), nullptr) << B.Name;
    const IncrementalScheduler::ReanalyzeStats &RS = *S.reanalyzeStats();
    EXPECT_EQ(RS.ExecutedActivations + RS.ReplayedActivations,
              R0->Counters.ActivationRuns)
        << B.Name;
    EXPECT_EQ(RS.PrevEntries, R0->Items.size()) << B.Name;
    if (RS.ExecutedActivations < R0->Counters.ActivationRuns)
      ++StrictlyFewer;
    TotalReplayed += RS.ReplayedRuns;
    ++Checked;
  }
  EXPECT_EQ(Checked, 11);
  // The acceptance bar: strictly fewer re-executed activations than a
  // from-scratch run on at least 9 of the 11 benchmarks.
  EXPECT_GE(StrictlyFewer, 9);
  EXPECT_GT(TotalReplayed, 0u);
}

TEST_P(IncrementalTest, RealEditIdentityOnAllBenchmarks) {
  // Append a clause to main/0 of every benchmark and reanalyze through
  // the program-diffing overload; must match a scratch session on the
  // edited program byte-for-byte.
  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    SymbolTable Syms;
    TermArena Arena;
    std::unique_ptr<CompiledProgram> P0 =
        compileOrDie(std::string(B.Source), Syms, Arena);
    ASSERT_NE(P0, nullptr) << B.Name;

    AnalysisSession S(*P0, incOptions());
    Result<AnalysisResult> R0 = S.analyze(B.EntrySpec);
    ASSERT_TRUE(R0) << B.Name << ": " << R0.diag().str();

    std::string EditedSrc = std::string(B.Source) + "\nmain.\n";
    TermArena Arena1;
    std::unique_ptr<CompiledProgram> P1 =
        compileOrDie(EditedSrc, Syms, Arena1);
    ASSERT_NE(P1, nullptr) << B.Name;

    Result<AnalysisResult> RInc = S.reanalyze(*P1);
    ASSERT_TRUE(RInc) << B.Name << ": " << RInc.diag().str();

    AnalysisSession Scratch(*P1, incOptions());
    Result<AnalysisResult> RScr = Scratch.analyze(B.EntrySpec);
    ASSERT_TRUE(RScr) << B.Name << ": " << RScr.diag().str();
    EXPECT_EQ(fingerprint(*RScr, Syms), fingerprint(*RInc, Syms)) << B.Name;
  }
}

TEST_P(IncrementalTest, CalleeTouchEditsMatchScratchAndKeepRunOrder) {
  // Touch-edit each defined predicate of every benchmark in turn: the
  // re-answer must match the original run. A trace that executed the
  // edited predicate cannot replay, but it keeps its place among the runs
  // of its key, so the Nth pop of a key still meets the Nth recorded run.
  // Editing nreverse's concatenate/3 is such a case: a key's earlier run
  // entered concatenate, a later one only memo-read it, and that later run
  // must still replay.
  int Checked = 0;
  uint64_t NrevConcatReplayed = 0;
  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    SymbolTable Syms;
    TermArena Arena;
    std::unique_ptr<CompiledProgram> P =
        compileOrDie(std::string(B.Source), Syms, Arena);
    ASSERT_NE(P, nullptr) << B.Name;
    const CodeModule &M = *P->Module;
    for (int32_t Pid = 0; Pid != M.numPredicates(); ++Pid) {
      const PredicateInfo &PI = M.predicate(Pid);
      if (PI.Clauses.empty())
        continue;
      PredSig Sig{std::string(M.symbols().name(PI.Name)), PI.Arity};
      AnalysisSession S(*P, incOptions());
      Result<AnalysisResult> R0 = S.analyze(B.EntrySpec);
      ASSERT_TRUE(R0) << B.Name << ": " << R0.diag().str();
      Result<AnalysisResult> R1 = S.reanalyze({Sig});
      ASSERT_TRUE(R1) << B.Name << " " << Sig.Name << ": "
                      << R1.diag().str();
      EXPECT_EQ(fingerprint(*R0, Syms), fingerprint(*R1, Syms))
          << B.Name << " " << Sig.Name << "/" << Sig.Arity;
      if (B.Name == "nreverse" && Sig.Name == "concatenate") {
        ASSERT_NE(S.reanalyzeStats(), nullptr);
        NrevConcatReplayed = S.reanalyzeStats()->ReplayedRuns;
      }
      ++Checked;
    }
  }
  EXPECT_GE(Checked, 40);
  EXPECT_GT(NrevConcatReplayed, 0u);
}

TEST_P(IncrementalTest, UneditedRecompileReplaysEverything) {
  // Recompiling the identical source against the same symbol table diffs
  // to an empty edit set: the cone is empty, so the root survives and is
  // answered from the store's cache without executing a single activation.
  SymbolTable Syms;
  TermArena A0, A1;
  const std::string Src =
      "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).\n"
      "nrev([], []). nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n";
  std::unique_ptr<CompiledProgram> P0 = compileOrDie(Src, Syms, A0);
  std::unique_ptr<CompiledProgram> P1 = compileOrDie(Src, Syms, A1);
  ASSERT_NE(P0, nullptr);
  ASSERT_NE(P1, nullptr);

  AnalysisSession S(*P0, incOptions());
  Result<AnalysisResult> R0 = S.analyze("nrev(glist, var)");
  ASSERT_TRUE(R0) << R0.diag().str();

  Result<AnalysisResult> R1 = S.reanalyze(*P1);
  ASSERT_TRUE(R1) << R1.diag().str();
  EXPECT_EQ(fingerprint(*R0, Syms), fingerprint(*R1, Syms));
  ASSERT_NE(S.store(), nullptr);
  const AnalysisStore::Stats &St = S.store()->stats();
  EXPECT_EQ(St.LastConeEntries, 0u);
  EXPECT_EQ(St.InvalidatedRoots, 0u);
  EXPECT_EQ(St.CacheHits, 1u);
  EXPECT_EQ(St.ExecutedActivations, 0u);
  EXPECT_EQ(S.reanalyzeStats(), nullptr); // a cache hit drains nothing
}

TEST_P(IncrementalTest, ChainedEditsMatchScratchEachStep) {
  // A chain of reanalyze() calls, each recording for the next: every step
  // must match a scratch analysis of that step's program.
  SymbolTable Syms;
  std::vector<std::unique_ptr<TermArena>> Arenas;
  std::vector<std::unique_ptr<CompiledProgram>> Programs;
  auto compileKeep = [&](const std::string &Src) -> CompiledProgram * {
    Arenas.push_back(std::make_unique<TermArena>());
    std::unique_ptr<CompiledProgram> P =
        compileOrDie(Src, Syms, *Arenas.back());
    if (!P)
      return nullptr;
    Programs.push_back(std::move(P));
    return Programs.back().get();
  };

  const std::string Base = "len([], 0). len([_|T], N) :- len(T, M), N is M + 1.\n"
                           "dup([], []). dup([H|T], [H, H|R]) :- dup(T, R).\n"
                           "main(L, N) :- dup(L, D), len(D, N).\n";
  CompiledProgram *P0 = compileKeep(Base);
  ASSERT_NE(P0, nullptr);
  AnalysisSession S(*P0, incOptions());
  Result<AnalysisResult> R = S.analyze("main(glist, var)");
  ASSERT_TRUE(R) << R.diag().str();

  const std::string Edits[] = {
      // Step 1: extra dup clause (reachable predicate changes).
      Base + "dup([X], [X]).\n",
      // Step 2: on top of step 1, len gains a shortcut clause.
      Base + "dup([X], [X]).\nlen([_], 1).\n",
      // Step 3: main itself changes.
      Base + "dup([X], [X]).\nlen([_], 1).\nmain(L, N) :- len(L, N).\n",
      // Step 4: a new predicate up front shifts every predicate id (ids
      // follow first reference), and dup loses its extra clause.
      "aux(0).\n" + Base + "len([_], 1).\nmain(L, N) :- len(L, N).\n",
  };
  for (const std::string &Src : Edits) {
    CompiledProgram *P = compileKeep(Src);
    ASSERT_NE(P, nullptr);
    Result<AnalysisResult> RInc = S.reanalyze(*P);
    ASSERT_TRUE(RInc) << RInc.diag().str();
    // Every step's edit reaches the root, so the re-answer drains; the
    // runs the edit left alone replay.
    ASSERT_NE(S.reanalyzeStats(), nullptr) << Src;
    EXPECT_GT(S.reanalyzeStats()->ReplayedRuns, 0u) << Src;

    AnalysisSession Scratch(*P, incOptions());
    Result<AnalysisResult> RScr = Scratch.analyze("main(glist, var)");
    ASSERT_TRUE(RScr) << RScr.diag().str();
    EXPECT_EQ(fingerprint(*RScr, Syms), fingerprint(*RInc, Syms)) << Src;
  }
  // Step 4 really moved the ids the replayed traces were recorded under.
  const Symbol Len = Syms.lookup("len");
  EXPECT_NE(P0->Module->findPredicate(Len, 2),
            Programs.back()->Module->findPredicate(Len, 2));
}

TEST_P(IncrementalTest, ReanalyzeWithoutJournalFallsBackToScratch) {
  // A non-persistent session analyzed scratch, so its store has no
  // journal: reanalyze() answers the same goal cold — the right (scratch)
  // answer, just without replay savings.
  SymbolTable Syms;
  TermArena Arena;
  std::unique_ptr<CompiledProgram> P =
      compileOrDie("p(a). q(X) :- p(X).\n", Syms, Arena);
  ASSERT_NE(P, nullptr);
  AnalysisSession S(*P, AnalyzerOptions{}); // not persistent
  Result<AnalysisResult> R0 = S.analyze("q(var)");
  ASSERT_TRUE(R0) << R0.diag().str();
  Result<AnalysisResult> R1 = S.reanalyze({PredSig{"p", 1}});
  ASSERT_TRUE(R1) << R1.diag().str();
  EXPECT_EQ(fingerprint(*R0, Syms), fingerprint(*R1, Syms));
  EXPECT_EQ(S.reanalyzeStats(), nullptr);
}

TEST(IncrementalErrorTest, ReanalyzeBeforeAnalyzeIsAnError) {
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> P = compileSource("p(a).\n", Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  AnalysisSession S(*P, incOptions());
  Result<AnalysisResult> R = S.reanalyze({PredSig{"p", 1}});
  EXPECT_FALSE(R);
}

TEST_P(IncrementalTest, RandomEditSequencesMatchScratch) {
  // >= 30 random clause-level edit sequences: generate a program, chain
  // three mutations through one incremental session, and require
  // byte-identity with a scratch session at every step. Seeds 0-11 are
  // small random programs analyzed from p0, whose root usually runs in a
  // single activation; seeds 12-15 are small layered corpora analyzed
  // from drive/1, whose list-walking recursion re-explores callees in
  // runs of their own — the runs an edit elsewhere leaves to replay.
  int Sequences = 0;
  uint64_t TotalReplayed = 0;
  for (unsigned Seed = 0; Seed != 16; ++Seed) {
    SymbolTable Syms;
    std::vector<std::unique_ptr<TermArena>> Arenas;
    std::vector<std::unique_ptr<CompiledProgram>> Programs;

    std::string Src;
    if (Seed < 12) {
      Src = testgen::generateProgram(Seed);
    } else {
      testgen::CorpusOptions CO;
      CO.Clauses = 40;
      testgen::Corpus C = testgen::generateCorpus(Seed, CO);
      Src = C.Library + C.User;
    }
    Arenas.push_back(std::make_unique<TermArena>());
    std::unique_ptr<CompiledProgram> P0 =
        compileOrDie(Src, Syms, *Arenas.back());
    ASSERT_NE(P0, nullptr);
    Programs.push_back(std::move(P0));

    // Entry: p0 at whatever arity this seed generated, all-any arguments;
    // the corpus driver otherwise.
    std::string Entry = "drive/1";
    if (Seed < 12) {
      int Arity = -1;
      const Symbol P0Sym = Syms.lookup("p0");
      for (int32_t I = 0; I != Programs.back()->Module->numPredicates();
           ++I) {
        const PredicateInfo &PI = Programs.back()->Module->predicate(I);
        if (PI.Name == P0Sym)
          Arity = PI.Arity;
      }
      ASSERT_GE(Arity, 1) << "seed " << Seed;
      Entry = "p0/" + std::to_string(Arity);
    }

    AnalysisSession S(*Programs.back(), incOptions());
    Result<AnalysisResult> R = S.analyze(Entry);
    ASSERT_TRUE(R) << "seed " << Seed << ": " << R.diag().str();

    for (unsigned Step = 0; Step != 3; ++Step, ++Sequences) {
      testgen::ProgramMutation Mut =
          testgen::mutateProgram(Src, Seed * 31 + Step + 1);
      Src = Mut.Source;
      Arenas.push_back(std::make_unique<TermArena>());
      std::unique_ptr<CompiledProgram> P =
          compileOrDie(Src, Syms, *Arenas.back());
      ASSERT_NE(P, nullptr) << "seed " << Seed << " step " << Step;
      Programs.push_back(std::move(P));

      uint64_t HitsBefore = S.store()->stats().CacheHits;
      Result<AnalysisResult> RInc = S.reanalyze(*Programs.back());
      ASSERT_TRUE(RInc) << "seed " << Seed << " step " << Step << " (edit "
                        << Mut.Pred << "/" << Mut.Arity
                        << "): " << RInc.diag().str();
      // An edit that misses the root's projection is answered from the
      // store's cache (no drain, so no drain statistics); only replays in
      // real drains count toward the bar below.
      if (const auto *RS = S.reanalyzeStats())
        TotalReplayed += RS->ReplayedRuns;
      else
        EXPECT_EQ(S.store()->stats().CacheHits, HitsBefore + 1)
            << "seed " << Seed << " step " << Step;

      AnalysisSession Scratch(*Programs.back(), incOptions());
      Result<AnalysisResult> RScr = Scratch.analyze(Entry);
      ASSERT_TRUE(RScr) << "seed " << Seed << " step " << Step << ": "
                        << RScr.diag().str();
      EXPECT_EQ(fingerprint(*RScr, Syms), fingerprint(*RInc, Syms))
          << "seed " << Seed << " step " << Step << " (edit " << Mut.Pred
          << "/" << Mut.Arity << ")\n--- source ---\n"
          << Src;
    }
  }
  EXPECT_GE(Sequences, 30);
  EXPECT_GT(TotalReplayed, 0u);
}

TEST_P(IncrementalTest, ChainedTouchEditsKeepTheStoreBounded) {
  // Twenty chained touch edits of main/0 on zebra: every re-answer equals
  // scratch, and the store stops growing — each dead root's journal joins
  // the hint bank without duplicating what the bank already holds.
  const BenchmarkProgram *Zebra = nullptr;
  for (const BenchmarkProgram &B : benchmarkPrograms())
    if (B.Name == "zebra")
      Zebra = &B;
  ASSERT_NE(Zebra, nullptr);
  SymbolTable Syms;
  TermArena Arena;
  std::unique_ptr<CompiledProgram> P =
      compileOrDie(std::string(Zebra->Source), Syms, Arena);
  ASSERT_NE(P, nullptr);

  AnalysisSession Scratch(*P, AnalyzerOptions{});
  Result<AnalysisResult> RScr = Scratch.analyze(Zebra->EntrySpec);
  ASSERT_TRUE(RScr) << RScr.diag().str();
  const std::string Want = fingerprint(*RScr, Syms);

  AnalysisSession S(*P, incOptions());
  ASSERT_TRUE(S.analyze(Zebra->EntrySpec));
  uint64_t BytesAfterTwo = 0;
  for (int Edit = 1; Edit <= 20; ++Edit) {
    Result<AnalysisResult> R = S.reanalyze({PredSig{"main", 0}});
    ASSERT_TRUE(R) << "edit " << Edit << ": " << R.diag().str();
    EXPECT_EQ(Want, fingerprint(*R, Syms)) << "edit " << Edit;
    if (Edit == 2)
      BytesAfterTwo = S.store()->bytesUsed();
  }
  EXPECT_EQ(S.store()->bytesUsed(), BytesAfterTwo);
}

TEST_P(IncrementalTest, ChainedLeafEditsKeepTheHintBankBounded) {
  // Twenty chained recompiles, each giving leaf/1 a new constant: every
  // re-answer equals scratch, and the hint bank levels off. Each edit
  // leaves behind walk/2's re-exploration run, which memo-read the old
  // leaf summary and can never validate again; the drain that consumes
  // and rejects it drops it from the bank.
  SymbolTable Syms;
  std::vector<std::unique_ptr<TermArena>> Arenas;
  std::vector<std::unique_ptr<CompiledProgram>> Programs;
  auto compileLeaf = [&](int K) -> CompiledProgram * {
    Arenas.push_back(std::make_unique<TermArena>());
    std::unique_ptr<CompiledProgram> P = compileOrDie(
        "leaf(c" + std::to_string(K) + ").\n"
        "walk([], _).\n"
        "walk([_|T], X) :- leaf(X), walk(T, X).\n"
        "main(L, X) :- walk(L, X).\n",
        Syms, *Arenas.back());
    if (!P)
      return nullptr;
    Programs.push_back(std::move(P));
    return Programs.back().get();
  };

  CompiledProgram *P0 = compileLeaf(0);
  ASSERT_NE(P0, nullptr);
  AnalysisSession S(*P0, incOptions());
  ASSERT_TRUE(S.analyze("main(glist, var)"));
  uint64_t HintsAfterTwo = 0;
  for (int Edit = 1; Edit <= 20; ++Edit) {
    CompiledProgram *P = compileLeaf(Edit);
    ASSERT_NE(P, nullptr);
    Result<AnalysisResult> RInc = S.reanalyze(*P);
    ASSERT_TRUE(RInc) << "edit " << Edit << ": " << RInc.diag().str();
    AnalysisSession Scratch(*P, incOptions());
    Result<AnalysisResult> RScr = Scratch.analyze("main(glist, var)");
    ASSERT_TRUE(RScr) << RScr.diag().str();
    EXPECT_EQ(fingerprint(*RScr, Syms), fingerprint(*RInc, Syms))
        << "edit " << Edit;
    if (Edit == 2)
      HintsAfterTwo = S.store()->stats().HintTraces;
  }
  EXPECT_EQ(S.store()->stats().HintTraces, HintsAfterTwo);
}

std::string threadName(const ::testing::TestParamInfo<int> &Info) {
  return "Threads" + std::to_string(Info.param);
}

// One instance, Threads1: the analyzer is single-threaded, and the value
// keeps the suite's test names stable.
INSTANTIATE_TEST_SUITE_P(SequentialAndParallel, IncrementalTest,
                         ::testing::Values(1), threadName);

} // namespace
