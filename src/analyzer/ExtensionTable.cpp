//===- analyzer/ExtensionTable.cpp ----------------------------------------===//

#include "analyzer/ExtensionTable.h"

#include <cassert>

using namespace awam;

// Indexes store table positions (== ETEntry::Idx).

ETEntry &ExtensionTable::appendEntry() {
  ETEntry &E = Owned.emplace_back();
  E.Idx = static_cast<int32_t>(Owned.size() - 1);
  return E;
}

void ExtensionTable::indexEntry(const ETEntry &E) {
  if (WhichImpl != Impl::HashMap)
    return;
  uint32_t Pos = static_cast<uint32_t>(E.Idx);
  auto Absent = [](uint32_t) { return false; }; // the key is new
  StructIndex.findOrInsert(structKey(E.PredId, E.Call.hash()), Pos, Absent);
  if (Interner)
    IdIndex.findOrInsert(idKey(E.PredId, E.CallId), Pos, Absent);
}

uint32_t ExtensionTable::position(int32_t PredId, const Pattern &Call,
                                  uint64_t *Count) const {
  auto Matches = [&](const ETEntry &E) {
    return E.PredId == PredId && E.Call == Call;
  };
  if (WhichImpl == Impl::LinearList) {
    for (const ETEntry &E : Owned) {
      if (Count)
        ++*Count;
      if (Matches(E))
        return static_cast<uint32_t>(E.Idx);
    }
    return DenseIndex::NotFound;
  }
  if (Count)
    ++*Count; // index consultation (counted on hits and misses alike)
  bool First = true;
  return StructIndex.find(structKey(PredId, Call.hash()), [&](uint32_t Pos) {
    if (Count && !First)
      ++*Count; // each additional candidate compared
    First = false;
    return Matches(Owned[Pos]);
  });
}

ETEntry *ExtensionTable::find(int32_t PredId, const Pattern &Call) {
  uint32_t Pos = position(PredId, Call, &Probes);
  return Pos == DenseIndex::NotFound ? nullptr : &Owned[Pos];
}

const ETEntry *ExtensionTable::findExisting(int32_t PredId,
                                            const Pattern &Call) const {
  uint32_t Pos = position(PredId, Call, nullptr);
  return Pos == DenseIndex::NotFound ? nullptr : &Owned[Pos];
}

ETEntry &ExtensionTable::findOrCreate(int32_t PredId, const Pattern &Call,
                                      bool &Created) {
  if (ETEntry *E = find(PredId, Call)) {
    Created = false;
    return *E;
  }
  Created = true;
  ETEntry &E = appendEntry();
  E.PredId = PredId;
  E.Call = Call;
  if (Interner)
    E.CallId = Interner->intern(Call);
  indexEntry(E);
  return E;
}

ETEntry *ExtensionTable::find(int32_t PredId, PatternId CallId) {
  assert(Interner && "id-keyed lookup requires an interner");
  auto Matches = [&](const ETEntry &E) {
    return E.PredId == PredId && E.CallId == CallId;
  };
  if (WhichImpl == Impl::LinearList) {
    for (ETEntry &E : Owned) {
      ++Probes;
      if (Matches(E))
        return &E;
    }
    return nullptr;
  }
  ++Probes;
  uint32_t Pos = IdIndex.find(idKey(PredId, CallId),
                              [&](uint32_t P) { return Matches(Owned[P]); });
  return Pos == DenseIndex::NotFound ? nullptr : &Owned[Pos];
}

ETEntry &ExtensionTable::findOrCreate(int32_t PredId, PatternId CallId,
                                      bool &Created) {
  if (ETEntry *E = find(PredId, CallId)) {
    Created = false;
    return *E;
  }
  Created = true;
  ETEntry &E = appendEntry();
  E.PredId = PredId;
  E.CallId = CallId;
  E.Call = Interner->pattern(CallId);
  indexEntry(E);
  return E;
}
