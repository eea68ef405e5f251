//===- tests/CompilerTest.cpp - WAM compiler unit tests -------------------===//
//
// Instruction selection (via the disassembler), register discipline,
// environment allocation rules, cut compilation, indexing structure,
// compile-time error reporting, and the module layout (clause order,
// predicate ids, and a pinned digest of a generated corpus's layout).
//
//===----------------------------------------------------------------------===//

#include "compiler/Disasm.h"
#include "compiler/ModuleLink.h"
#include "compiler/ProgramCompiler.h"

#include "RandomProgramGen.h"

#include <gtest/gtest.h>

#include <set>

using namespace awam;

namespace {

class CompilerTest : public ::testing::Test {
protected:
  /// Compiles a program; returns the disassembly of the named predicate.
  std::string compilePred(std::string_view Source, std::string_view Name,
                          int Arity) {
    Result<CompiledProgram> P = compileSource(Source, Syms, Arena);
    if (!P)
      return "ERROR: " + P.diag().str();
    Program = std::make_unique<CompiledProgram>(P.take());
    int32_t Pid =
        Program->Module->findPredicate(Syms.intern(Name), Arity);
    if (Pid < 0)
      return "NOT-FOUND";
    return disassemblePredicate(*Program->Module, Pid);
  }

  bool contains(const std::string &Hay, std::string_view Needle) {
    return Hay.find(Needle) != std::string::npos;
  }

  SymbolTable Syms;
  TermArena Arena;
  std::unique_ptr<CompiledProgram> Program;
};

TEST_F(CompilerTest, FactCompilesToGetsAndProceed) {
  std::string D = compilePred("p(a, 1).", "p", 2);
  EXPECT_TRUE(contains(D, "get_const           a, A1")) << D;
  EXPECT_TRUE(contains(D, "get_const           1, A2")) << D;
  EXPECT_TRUE(contains(D, "proceed")) << D;
  EXPECT_FALSE(contains(D, "allocate")) << D;
}

TEST_F(CompilerTest, PaperFigure2Sequence) {
  // The paper's example head compiles to the Figure 2 sequence:
  // get_const, get_list, unify_var x2, unify_var x2... breadth-first with
  // the nested structure handled after the list level.
  std::string D = compilePred("p(a, [f(V)|L]) :- q(V, L).\nq(_, _).",
                              "p", 2);
  size_t GetConst = D.find("get_const");
  size_t GetList = D.find("get_list");
  size_t GetStruct = D.find("get_structure       f/1");
  ASSERT_NE(GetConst, std::string::npos) << D;
  ASSERT_NE(GetList, std::string::npos) << D;
  ASSERT_NE(GetStruct, std::string::npos) << D;
  // Breadth-first: the list level is consumed before f/1 is entered.
  EXPECT_LT(GetConst, GetList);
  EXPECT_LT(GetList, GetStruct);
}

TEST_F(CompilerTest, LastCallOptimization) {
  std::string D = compilePred("p(X) :- q(X).\nq(_).", "p", 1);
  EXPECT_TRUE(contains(D, "execute             q/1")) << D;
  EXPECT_FALSE(contains(D, "call")) << D;
  EXPECT_FALSE(contains(D, "allocate")) << D;
}

TEST_F(CompilerTest, EnvironmentForTwoCalls) {
  std::string D = compilePred("p(X) :- q(X), r(X).\nq(_).\nr(_).", "p", 1);
  EXPECT_TRUE(contains(D, "allocate            1")) << D;
  EXPECT_TRUE(contains(D, "get_variable_y")) << D;
  EXPECT_TRUE(contains(D, "call                q/1")) << D;
  EXPECT_TRUE(contains(D, "deallocate")) << D;
  EXPECT_TRUE(contains(D, "execute             r/1")) << D;
}

TEST_F(CompilerTest, VoidHeadArgumentEmitsNothing) {
  std::string D = compilePred("p(_, b).", "p", 2);
  EXPECT_FALSE(contains(D, "A1")) << D; // first argument untouched
  EXPECT_TRUE(contains(D, "get_const           b, A2")) << D;
}

TEST_F(CompilerTest, VoidSubtermsMerge) {
  std::string D = compilePred("p(f(_, _, X)) :- q(X).\nq(_).", "p", 1);
  EXPECT_TRUE(contains(D, "unify_void          2")) << D;
}

TEST_F(CompilerTest, NeckCutVsDeepCut) {
  std::string DN = compilePred("p(X) :- !, q(X).\nq(_).", "p", 1);
  EXPECT_TRUE(contains(DN, "neck_cut")) << DN;
  EXPECT_FALSE(contains(DN, "get_level")) << DN;

  std::string DD = compilePred("p(X) :- q(X), !, r(X).\nq(_).\nr(_).",
                               "p", 1);
  EXPECT_TRUE(contains(DD, "get_level")) << DD;
  EXPECT_TRUE(contains(DD, "cut_y")) << DD;
}

TEST_F(CompilerTest, BodyStructureBuiltBottomUp) {
  std::string D = compilePred("p :- q(f(g(1))).\nq(_).", "p", 0);
  size_t G = D.find("put_structure       g/1");
  size_t F = D.find("put_structure       f/1");
  ASSERT_NE(G, std::string::npos) << D;
  ASSERT_NE(F, std::string::npos) << D;
  EXPECT_LT(G, F) << D; // inner structure first
}

TEST_F(CompilerTest, BuiltinGoalCompilesInline) {
  std::string D = compilePred("p(X, Y) :- Y is X + 1.", "p", 2);
  EXPECT_TRUE(contains(D, "builtin             is/2")) << D;
  EXPECT_FALSE(contains(D, "call")) << D;
}

TEST_F(CompilerTest, SwitchOnTermEmitted) {
  std::string D = compilePred(
      "t(a). t(1). t([_|_]). t(f(_)). t(X) :- q(X).\nq(_).", "t", 1);
  EXPECT_TRUE(contains(D, "switch_on_term")) << D;
  // The secondary dispatch tables live in the module-wide indexing code.
  std::string Module = disassembleModule(*Program->Module);
  EXPECT_TRUE(contains(Module, "switch_on_constant")) << Module;
  EXPECT_TRUE(contains(Module, "switch_on_structure")) << Module;
}

TEST_F(CompilerTest, SingleClauseHasNoIndexing) {
  std::string D = compilePred("only(a).", "only", 1);
  EXPECT_FALSE(contains(D, "switch_on_term")) << D;
  EXPECT_FALSE(contains(D, "try      ")) << D;
}

TEST_F(CompilerTest, TryChainCarriesArity) {
  Result<CompiledProgram> P =
      compileSource("m(X, Y) :- a(X, Y).\nm(X, Y) :- b(X, Y).\n"
                    "a(_, _).\nb(_, _).",
                    Syms, Arena);
  ASSERT_TRUE(P);
  const CodeModule &M = *P->Module;
  bool FoundTry = false;
  for (int32_t A = 0; A != M.codeSize(); ++A)
    if (M.at(A).Op == Opcode::Try && M.at(A).B == 2)
      FoundTry = true;
  EXPECT_TRUE(FoundTry) << "try must save the predicate's 2 arguments";
}

TEST_F(CompilerTest, RedefiningBuiltinRejected) {
  Result<CompiledProgram> P = compileSource("is(X, X).", Syms, Arena);
  EXPECT_FALSE(P);
}

TEST_F(CompilerTest, DisjunctionCompilesViaAuxiliaryPredicate) {
  Result<CompiledProgram> P =
      compileSource("p :- (a ; b).\na.\nb.", Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  // The desugared auxiliary predicate exists with two clauses.
  bool FoundAux = false;
  for (int32_t Pid = 0; Pid != P->Module->numPredicates(); ++Pid)
    if (P->Module->predicateLabel(Pid).starts_with("$aux") &&
        P->Module->predicate(Pid).Clauses.size() == 2)
      FoundAux = true;
  EXPECT_TRUE(FoundAux);
}

TEST_F(CompilerTest, UndefinedPredicatesReported) {
  Result<CompiledProgram> P = compileSource("p :- missing.", Syms, Arena);
  ASSERT_TRUE(P);
  ASSERT_EQ(P->UndefinedPredicates.size(), 1u);
  EXPECT_EQ(P->Module->predicateLabel(P->UndefinedPredicates[0]),
            "missing/0");
}

TEST_F(CompilerTest, ProfileCountsArgsAndPreds) {
  Result<CompiledProgram> P = compileSource(
      "f(_, _).\nf(a, b).\ng(_).\nh.", Syms, Arena);
  ASSERT_TRUE(P);
  EXPECT_EQ(P->NumPreds, 3);
  EXPECT_EQ(P->NumArgs, 3); // f/2 + g/1 + h/0
}

TEST_F(CompilerTest, ModuleLayoutFixedPrologue) {
  Result<CompiledProgram> P = compileSource("p.", Syms, Arena);
  ASSERT_TRUE(P);
  EXPECT_EQ(P->Module->at(kHaltAddress).Op, Opcode::Halt);
  EXPECT_EQ(P->Module->at(kProceedAddress).Op, Opcode::Proceed);
}

TEST_F(CompilerTest, ConstPoolDeduplicates) {
  Result<CompiledProgram> P =
      compileSource("p(a, a, a, 7, 7).", Syms, Arena);
  ASSERT_TRUE(P);
  const CodeModule &M = *P->Module;
  // Count distinct constants referenced by the gets: must be 2 pool slots.
  std::set<int32_t> Pool;
  for (int32_t A = 0; A != M.codeSize(); ++A)
    if (M.at(A).Op == Opcode::GetConst)
      Pool.insert(M.at(A).A);
  EXPECT_EQ(Pool.size(), 2u);
}

TEST_F(CompilerTest, DiscontiguousClausesKeepSourceOrder) {
  // q/1 and p/1 interleave; q is defined first, r/0 is only called.
  Result<CompiledProgram> P = compileSource(
      "q(a).\np(1).\nq(b) :- r.\np(2).\nq(c).\np(3).\n", Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  const CodeModule &M = *P->Module;
  int32_t Q = M.findPredicate(Syms.intern("q"), 1);
  int32_t Pp = M.findPredicate(Syms.intern("p"), 1);
  int32_t R = M.findPredicate(Syms.intern("r"), 0);
  // Ids follow first definition; called-only predicates come after.
  EXPECT_EQ(Q, 0);
  EXPECT_EQ(Pp, 1);
  EXPECT_EQ(R, 2);
  EXPECT_EQ(P->NumPreds, 2);
  EXPECT_EQ(P->NumArgs, 2);

  // The first-argument constant of each clause, in Clauses order.
  auto firstArgs = [&](int32_t Pid) {
    std::vector<std::string> Out;
    for (const ClauseInfo &C : M.predicate(Pid).Clauses)
      for (int32_t A = C.Entry; A != C.Entry + C.NumInstr; ++A)
        if (M.at(A).Op == Opcode::GetConst) {
          const ConstOperand &K = M.constAt(M.at(A).A);
          Out.push_back(K.K == ConstOperand::AtomK
                            ? std::string(Syms.name(K.Name))
                            : std::to_string(K.Int));
          break;
        }
    return Out;
  };
  EXPECT_EQ(firstArgs(Q), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(firstArgs(Pp), (std::vector<std::string>{"1", "2", "3"}));
  // Code blocks are laid out predicate by predicate in id order.
  EXPECT_LT(M.predicate(Q).Clauses.back().Entry,
            M.predicate(Pp).Clauses.front().Entry);
}

TEST_F(CompilerTest, ValueSwitchChainsMergeVarClausesInSourceOrder) {
  // Distinct keys, repeated keys and var-first-arg clauses interleaved:
  // every switch case must chain its key's clauses and the var clauses in
  // source order, with cases in pool-key order and the var clauses alone
  // as the default.
  Result<CompiledProgram> P = compileSource(
      "s(b, 0). s(X, 1). s(a, 2). s(f(_), 3). s(b, 4).\n"
      "s(Y, 5). s(a, 6). s(g(_), 7). s(f(_), 8). s(c, 9).\n",
      Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  const CodeModule &M = *P->Module;
  const PredicateInfo &S = M.predicate(M.findPredicate(Syms.intern("s"), 2));
  ASSERT_EQ(S.Clauses.size(), 10u);

  // Clause ordinals a switch target runs, in order.
  auto chain = [&](int32_t Addr) {
    std::vector<int> Out;
    auto ordinal = [&](int32_t Entry) {
      for (size_t I = 0; I != S.Clauses.size(); ++I)
        if (S.Clauses[I].Entry == Entry)
          return static_cast<int>(I);
      return -1;
    };
    if (Addr == kFailTarget)
      return Out;
    if (M.at(Addr).Op != Opcode::Try) {
      Out.push_back(ordinal(Addr));
      return Out;
    }
    for (;; ++Addr) {
      Out.push_back(ordinal(M.at(Addr).A));
      if (M.at(Addr).Op == Opcode::Trust)
        return Out;
    }
  };
  using Cases = std::vector<std::pair<std::string, std::vector<int>>>;
  auto cases = [&](const ValueSwitch &VS, bool Functors) {
    Cases Out;
    for (const auto &[Key, Addr] : VS.Cases)
      Out.emplace_back(
          std::string(Syms.name(Functors ? M.functorAt(Key).Name
                                         : M.constAt(Key).Name)),
          chain(Addr));
    return Out;
  };

  ASSERT_EQ(M.at(S.IndexEntry).Op, Opcode::SwitchOnTerm);
  const TermSwitch &TS = M.termSwitchAt(M.at(S.IndexEntry).A);
  const std::vector<int> Vars{1, 5};
  EXPECT_EQ(chain(TS.OnVar), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(chain(TS.OnList), Vars);

  ASSERT_EQ(M.at(TS.OnConst).Op, Opcode::SwitchOnConstant);
  const ValueSwitch &CS = M.valueSwitchAt(M.at(TS.OnConst).A);
  EXPECT_EQ(chain(CS.Default), Vars);
  // Pool keys follow first interning: b, then a, then c.
  EXPECT_EQ(cases(CS, false), (Cases{{"b", {0, 1, 4, 5}},
                                     {"a", {1, 2, 5, 6}},
                                     {"c", {1, 5, 9}}}));

  ASSERT_EQ(M.at(TS.OnStruct).Op, Opcode::SwitchOnStructure);
  const ValueSwitch &FS = M.valueSwitchAt(M.at(TS.OnStruct).A);
  EXPECT_EQ(chain(FS.Default), Vars);
  EXPECT_EQ(cases(FS, true),
            (Cases{{"f", {1, 3, 5, 8}}, {"g", {1, 5, 7}}}));
}

/// FNV-1a over the full physical layout of a compiled program: code
/// stream, constant and functor pools, switch tables, predicate table and
/// profile counts. Unlike CodeModule::fingerprint, raw addresses and pool
/// indices count, so any reordering of the emitted code changes it.
uint64_t layoutDigest(const CompiledProgram &P) {
  const CodeModule &M = *P.Module;
  const SymbolTable &Syms = M.symbols();
  uint64_t H = 1469598103934665603ull;
  auto Byte = [&](unsigned char B) {
    H ^= B;
    H *= 1099511628211ull;
  };
  auto Int = [&](int64_t V) {
    for (int I = 0; I != 8; ++I)
      Byte(static_cast<unsigned char>(static_cast<uint64_t>(V) >> (8 * I)));
  };
  auto Str = [&](std::string_view S) {
    Int(static_cast<int64_t>(S.size()));
    for (char C : S)
      Byte(static_cast<unsigned char>(C));
  };
  Int(M.codeSize());
  for (int32_t A = 0; A != M.codeSize(); ++A) {
    const Instruction &I = M.at(A);
    Int(static_cast<int64_t>(I.Op));
    Int(I.A);
    Int(I.B);
    Int(I.C);
    Int(I.Flags);
  }
  Int(M.numConsts());
  for (int32_t K = 0; K != M.numConsts(); ++K) {
    const ConstOperand &C = M.constAt(K);
    Int(C.K);
    if (C.K == ConstOperand::AtomK)
      Str(Syms.name(C.Name));
    else
      Int(C.Int);
  }
  Int(M.numFunctors());
  for (int32_t K = 0; K != M.numFunctors(); ++K) {
    Str(Syms.name(M.functorAt(K).Name));
    Int(M.functorAt(K).Arity);
  }
  Int(M.numTermSwitches());
  for (int32_t K = 0; K != M.numTermSwitches(); ++K) {
    const TermSwitch &S = M.termSwitchAt(K);
    for (int32_t T : {S.OnVar, S.OnConst, S.OnList, S.OnStruct})
      Int(T);
  }
  Int(M.numValueSwitches());
  for (int32_t K = 0; K != M.numValueSwitches(); ++K) {
    const ValueSwitch &S = M.valueSwitchAt(K);
    Int(static_cast<int64_t>(S.Cases.size()));
    for (auto [Key, Target] : S.Cases) {
      Int(Key);
      Int(Target);
    }
    Int(S.Default);
  }
  Int(M.numPredicates());
  for (int32_t Pid = 0; Pid != M.numPredicates(); ++Pid) {
    const PredicateInfo &Pred = M.predicate(Pid);
    Str(Syms.name(Pred.Name));
    Int(Pred.Arity);
    Int(Pred.IndexEntry);
    Int(static_cast<int64_t>(Pred.Clauses.size()));
    for (const ClauseInfo &C : Pred.Clauses) {
      Int(C.Entry);
      Int(C.NumInstr);
    }
  }
  Int(P.MaxXReg);
  Int(P.NumArgs);
  Int(P.NumPreds);
  Int(static_cast<int64_t>(P.UndefinedPredicates.size()));
  for (int32_t Pid : P.UndefinedPredicates)
    Int(Pid);
  return H;
}

TEST(CompilerLayoutTest, CorpusLayoutGolden) {
  // A ~6k-clause two-unit corpus: both units and their link must keep
  // every code address, pool index, switch table and predicate id.
  testgen::Corpus C = testgen::generateCorpus(1000, {.Clauses = 6000});
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> Lib = compileSource(C.Library, Syms, Arena);
  ASSERT_TRUE(Lib) << Lib.diag().str();
  Result<CompiledProgram> User = compileSource(C.User, Syms, Arena);
  ASSERT_TRUE(User) << User.diag().str();
  Result<LinkedProgram> L =
      linkPrograms({{&*Lib, "library"}, {&*User, "user"}});
  ASSERT_TRUE(L) << L.diag().str();
  EXPECT_TRUE(L->UnresolvedImports.empty());

  EXPECT_EQ(layoutDigest(*Lib), 0xec46c7a9c163a72bull);
  EXPECT_EQ(layoutDigest(*User), 0x8de52c002364bfcfull);
  EXPECT_EQ(layoutDigest(L->Program), 0xadf5807b841627edull);
  EXPECT_EQ(L->Program.Module->fingerprint(), 0x2c57ed2249ff013bull);
}

} // namespace
