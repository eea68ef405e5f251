//===- tests/ParserGoldenTest.cpp - Pinned front-end output ---------------===//
//
// Pins what the front end produces, not just what it accepts: an FNV-1a
// digest of every SymbolTable name in id order (so the order in which the
// reader interns names is fixed) and of every parsed clause — head and
// body term shape, symbol ids, variable ids, NumVars, and the desugarer's
// $auxN clauses in order. The values were taken from the reader as it
// stood before its data structures were rebuilt (token views, arena
// argument chunks, the open-addressed symbol index, in-place desugaring);
// a change in any digest means the reader's output or intern order moved.
//
//===----------------------------------------------------------------------===//

#include "programs/Benchmarks.h"
#include "term/Parser.h"

#include "RandomProgramGen.h"

#include <gtest/gtest.h>

#include <map>

using namespace awam;

namespace {

/// FNV-1a, 64-bit, over integers and length-prefixed strings.
class Digest {
public:
  void add(int64_t V) {
    for (int I = 0; I != 8; ++I)
      byte(static_cast<unsigned char>(static_cast<uint64_t>(V) >> (8 * I)));
  }
  void add(std::string_view S) {
    add(static_cast<int64_t>(S.size()));
    for (char C : S)
      byte(static_cast<unsigned char>(C));
  }
  uint64_t value() const { return H; }

private:
  void byte(unsigned char B) {
    H ^= B;
    H *= 1099511628211ull;
  }
  uint64_t H = 1469598103934665603ull;
};

/// Every name of \p Syms, in id order.
uint64_t symbolDigest(const SymbolTable &Syms) {
  Digest D;
  D.add(static_cast<int64_t>(Syms.size()));
  for (Symbol S = 0; S != Syms.size(); ++S)
    D.add(Syms.name(S));
  return D.value();
}

void addTerm(Digest &D, const Term *T) {
  D.add(static_cast<int64_t>(T->kind()));
  switch (T->kind()) {
  case TermKind::Var:
    D.add(T->varId());
    D.add(T->varName());
    return;
  case TermKind::Int:
    D.add(T->intValue());
    return;
  case TermKind::Atom:
    D.add(T->functor());
    return;
  case TermKind::Struct:
    D.add(T->functor());
    D.add(T->arity());
    for (const Term *A : T->args())
      addTerm(D, A);
    return;
  }
}

/// Every clause (head, body goals, NumVars) and directive of \p P, in
/// order. Symbols enter as ids, so the digest also fixes intern order.
uint64_t programDigest(const ParsedProgram &P) {
  Digest D;
  D.add(static_cast<int64_t>(P.Clauses.size()));
  for (const ParsedClause &C : P.Clauses) {
    D.add(C.NumVars);
    addTerm(D, C.Head);
    D.add(static_cast<int64_t>(C.Body.size()));
    for (const Term *G : C.Body)
      addTerm(D, G);
  }
  D.add(static_cast<int64_t>(P.Directives.size()));
  for (const Term *G : P.Directives)
    addTerm(D, G);
  return D.value();
}

/// Number of clauses whose head is an $auxN predicate.
size_t auxClauses(const ParsedProgram &P, const SymbolTable &Syms) {
  size_t N = 0;
  for (const ParsedClause &C : P.Clauses)
    N += Syms.name(C.Head->functor()).starts_with("$aux");
  return N;
}

TEST(ParserGoldenTest, CorpusSymbolsAndClauses) {
  // The corpus CompilerLayoutTest.CorpusLayoutGolden compiles: both units
  // read into one table, as the linker pipeline does.
  testgen::Corpus C = testgen::generateCorpus(1000, {.Clauses = 6000});
  SymbolTable Syms;
  TermArena Arena;
  Result<ParsedProgram> Lib = parseProgram(C.Library, Syms, Arena);
  ASSERT_TRUE(Lib) << Lib.diag().str();
  uint64_t LibSymbols = symbolDigest(Syms);
  Result<ParsedProgram> User = parseProgram(C.User, Syms, Arena);
  ASSERT_TRUE(User) << User.diag().str();

  EXPECT_EQ(Lib->Clauses.size(), 2065u);
  EXPECT_EQ(User->Clauses.size(), 5147u);
  EXPECT_EQ(auxClauses(*Lib, Syms), 0u);
  EXPECT_EQ(auxClauses(*User, Syms), 0u);
  EXPECT_EQ(Syms.size(), 6036u);
  EXPECT_EQ(LibSymbols, 0x2a399e6484123fe0ull);
  EXPECT_EQ(symbolDigest(Syms), 0x936b3d850080ca31ull);
  EXPECT_EQ(programDigest(*Lib), 0x84f347f3415c7183ull);
  EXPECT_EQ(programDigest(*User), 0x464d40eaa594ae72ull);
}

TEST(ParserGoldenTest, Table1Programs) {
  // Each program read into a fresh table, as the analyzers do.
  const std::map<std::string_view, std::pair<uint64_t, uint64_t>> Golden = {
      {"log10", {0x7d8e0ac4cbf14996ull, 0xa8b301f842b51635ull}},
      {"ops8", {0xbe158a1acf4b7a54ull, 0x939f37c66a4af95dull}},
      {"times10", {0x3917baf9723d40daull, 0xa3bdb3e327714aedull}},
      {"divide10", {0xd1026e35d7f403a0ull, 0x6ef56cfcb4042914ull}},
      {"tak", {0x5fd31e2cc8f3cd3aull, 0xa1a1318571c88be0ull}},
      {"nreverse", {0x1fe0654b914a8fedull, 0x85c065a274713bbaull}},
      {"qsort", {0x02b75d07be413a6full, 0x9d7246f83dedef94ull}},
      {"query", {0x6ac57365d41652e3ull, 0x4b978c9e8ac59f13ull}},
      {"zebra", {0x13a3fd6a55000eadull, 0x919e79563ccfeb5bull}},
      {"serialise", {0x7dbda39b216aea4dull, 0xf839b883982b6506ull}},
      {"queens_8", {0xc36f73a1be82b243ull, 0xb2f0d813f97a6ddaull}},
  };
  ASSERT_EQ(benchmarkPrograms().size(), Golden.size());
  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    SCOPED_TRACE(std::string(B.Name));
    SymbolTable Syms;
    TermArena Arena;
    Result<ParsedProgram> P = parseProgram(B.Source, Syms, Arena);
    ASSERT_TRUE(P) << P.diag().str();
    auto It = Golden.find(B.Name);
    ASSERT_NE(It, Golden.end());
    EXPECT_EQ(symbolDigest(Syms), It->second.first);
    EXPECT_EQ(programDigest(*P), It->second.second);
  }
}

TEST(ParserGoldenTest, ControlConstructsOperatorsAndQuotedAtoms) {
  // Every construct whose names the reader interns in a particular order:
  // infix and prefix operators (interned after their operands), functor
  // applications (after their arguments), negative literals, lists, curly
  // terms, escaped quoted atoms, directives, and nested control constructs
  // that the desugarer turns into $auxN clauses.
  const char *Source = R"PL(
:- dynamic(counter/1).
p(X, Y) :- q(X), ( X > 0 -> Y is X * 2 + 1 ; \+ r(X), Y = -3 ), s(Y).
q('it''s'). q('a\nb'). q([1, 2 | T]) :- t(T).
r(X) :- ( X = a ; X = b ; ( X == c -> true ; fail ) ).
t({a, b}). t(- (1)). t(- a). t(f(- , +)). t(0'x).
u(A, _, _B, A) :- \+ \+ v(A), ( w ; x ), !.
v(X) :- X =.. [f | _], X \== g, X @< h.
)PL";
  SymbolTable Syms;
  TermArena Arena;
  Result<ParsedProgram> P = parseProgram(Source, Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  EXPECT_EQ(P->Clauses.size(), 26u);
  EXPECT_EQ(auxClauses(*P, Syms), 14u);
  EXPECT_EQ(Syms.size(), 53u);
  EXPECT_EQ(symbolDigest(Syms), 0x2c022ae830fc4816ull);
  EXPECT_EQ(programDigest(*P), 0x07aa9ab9e807e87bull);
}

} // namespace
