//===- tests/SymbolTableTest.cpp - Interning and the dense id index -------===//
//
// SymbolTable over DenseIndex: dense, stable ids across many rounds of
// index growth, names that share long prefixes or are empty, misses, and
// copies; plus the DenseIndex alone with colliding hashes.
//
//===----------------------------------------------------------------------===//

#include "support/DenseIndex.h"
#include "support/SymbolTable.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace awam;

namespace {

/// 200k distinct names: the empty name, names that extend each other, and
/// names that share a long prefix and differ only at the end.
std::vector<std::string> manyNames() {
  std::vector<std::string> Names = {""};
  const std::string Prefix(40, 'p');
  for (int I = 0; Names.size() < 200000; ++I) {
    Names.push_back(Prefix + std::to_string(I));
    Names.push_back(std::to_string(I).insert(0, 1, 'n'));
    if (I < 64)
      Names.push_back(std::string(I + 1, 'x'));
  }
  Names.resize(200000);
  return Names;
}

TEST(SymbolTableTest, FixedSymbolsComeFirst) {
  SymbolTable Syms;
  EXPECT_EQ(Syms.size(), size_t(SymbolTable::NumFixedSymbols));
  EXPECT_EQ(Syms.name(SymbolTable::SymNil), "[]");
  EXPECT_EQ(Syms.name(SymbolTable::SymDot), ".");
  EXPECT_EQ(Syms.intern("+"), Symbol(SymbolTable::SymPlus));
  EXPECT_EQ(Syms.lookup(":-"), Symbol(SymbolTable::SymNeck));
}

TEST(SymbolTableTest, ManyNamesGetDenseStableIds) {
  std::vector<std::string> Names = manyNames();
  SymbolTable Syms;
  std::vector<Symbol> Ids;
  std::vector<const char *> Storage;
  for (const std::string &N : Names) {
    Symbol S = Syms.intern(N);
    // Ids are dense: each new name gets the next id.
    ASSERT_EQ(S, Symbol(SymbolTable::NumFixedSymbols + Ids.size())) << N;
    Ids.push_back(S);
    Storage.push_back(Syms.name(S).data());
  }
  ASSERT_EQ(Syms.size(), SymbolTable::NumFixedSymbols + Names.size());
  for (size_t I = 0; I != Names.size(); ++I) {
    // Interning again, and lookup, give the same id after all the growth;
    // the name's bytes never moved.
    ASSERT_EQ(Syms.intern(Names[I]), Ids[I]) << Names[I];
    ASSERT_EQ(Syms.lookup(Names[I]), Ids[I]) << Names[I];
    ASSERT_EQ(Syms.name(Ids[I]), Names[I]);
    ASSERT_EQ(Syms.name(Ids[I]).data(), Storage[I]);
  }
  EXPECT_EQ(Syms.size(), SymbolTable::NumFixedSymbols + Names.size());
}

TEST(SymbolTableTest, LookupOfAMissingNameIsNotInterned) {
  SymbolTable Syms;
  Syms.intern("present");
  EXPECT_EQ(Syms.lookup("absent"), ~0u);
  EXPECT_EQ(Syms.lookup("presen"), ~0u);
  EXPECT_EQ(Syms.lookup("present "), ~0u);
  EXPECT_EQ(Syms.lookup(""), ~0u);
  EXPECT_EQ(Syms.size(), SymbolTable::NumFixedSymbols + 1u);
}

TEST(SymbolTableTest, CopyAnswersLikeTheOriginal) {
  std::vector<std::string> Names = manyNames();
  Names.resize(5000);
  auto Original = std::make_unique<SymbolTable>();
  for (const std::string &N : Names)
    Original->intern(N);
  SymbolTable Copy = *Original;
  SymbolTable Assigned;
  Assigned.intern("overwritten");
  Assigned = *Original;
  std::vector<Symbol> Expected;
  for (const std::string &N : Names)
    Expected.push_back(Original->lookup(N));
  // The copies own their names: they outlive the original.
  Original.reset();
  for (const SymbolTable *T : {&Copy, &Assigned}) {
    ASSERT_EQ(T->size(), SymbolTable::NumFixedSymbols + Names.size());
    for (size_t I = 0; I != Names.size(); ++I) {
      ASSERT_EQ(T->lookup(Names[I]), Expected[I]);
      ASSERT_EQ(T->name(Expected[I]), Names[I]);
    }
    EXPECT_EQ(T->lookup("overwritten"), ~0u);
  }
  // And they grow independently.
  Symbol A = Copy.intern("only_in_copy");
  EXPECT_EQ(Assigned.lookup("only_in_copy"), ~0u);
  EXPECT_EQ(Assigned.intern("only_in_assigned"), A);
  EXPECT_EQ(Copy.name(A), "only_in_copy");
  EXPECT_EQ(Assigned.name(A), "only_in_assigned");
}

TEST(SymbolTableTest, DenseIndexResolvesCollidingHashesByKey) {
  // Every key gets the same hash: the index must fall back on the owner's
  // key comparison and still hand out dense ids.
  std::vector<int> Keys;
  DenseIndex Index;
  auto Intern = [&](int Key) {
    auto Id = static_cast<uint32_t>(Keys.size());
    uint32_t K = Index.findOrInsert(
        42, Id, [&](uint32_t Other) { return Keys[Other] == Key; });
    if (K == Id)
      Keys.push_back(Key);
    return K;
  };
  for (int I = 0; I != 300; ++I)
    ASSERT_EQ(Intern(I * 7), uint32_t(I));
  for (int I = 0; I != 300; ++I)
    ASSERT_EQ(Intern(I * 7), uint32_t(I));
  EXPECT_EQ(Index.size(), 300u);
  EXPECT_EQ(Index.find(42, [&](uint32_t Other) { return Keys[Other] == 1; }),
            DenseIndex::NotFound);
  Index.clear();
  EXPECT_EQ(Index.size(), 0u);
  EXPECT_EQ(Index.find(42, [&](uint32_t) { return true; }),
            DenseIndex::NotFound);
}

} // namespace
