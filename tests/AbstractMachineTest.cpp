//===- tests/AbstractMachineTest.cpp - Abstract machine unit tests --------===//
//
// Direct tests of the abstract machine's control scheme: iteration
// protocol, memoization, trace events, instruction accounting, budget
// handling, and entry-spec validation.
//
//===----------------------------------------------------------------------===//

#include "analyzer/AbstractMachine.h"
#include "analyzer/Session.h"

#include <gtest/gtest.h>

using namespace awam;

namespace {

class AbstractMachineTest : public ::testing::Test {
protected:
  void compile(std::string_view Source) {
    Result<CompiledProgram> P = compileSource(Source, Syms, Arena);
    ASSERT_TRUE(P) << P.diag().str();
    Program = std::make_unique<CompiledProgram>(P.take());
  }

  int32_t pid(std::string_view Name, int Arity) {
    return Program->Module->findPredicate(Syms.intern(Name), Arity);
  }

  SymbolTable Syms;
  TermArena Arena;
  std::unique_ptr<CompiledProgram> Program;
};

TEST_F(AbstractMachineTest, QuiescentSecondIteration) {
  compile("p(a). p(b).");
  ExtensionTable Table;
  AbstractMachine M(*Program, Table);
  Pattern Entry = makeEntryPattern({PatKind::VarP});
  ASSERT_EQ(M.runIteration(pid("p", 1), Entry), AbsRunStatus::Completed);
  EXPECT_TRUE(M.changedSinceLastRun());
  ASSERT_EQ(M.runIteration(pid("p", 1), Entry), AbsRunStatus::Completed);
  EXPECT_FALSE(M.changedSinceLastRun());
  EXPECT_EQ(Table.size(), 1u);
}

TEST_F(AbstractMachineTest, MemoizationAvoidsReexploration) {
  // q is called twice with the same pattern; the table must have exactly
  // one q entry and the second call must be a lookup (visible as fewer
  // explore events than calls).
  compile("p :- q(1), q(2).\nq(_).");
  std::vector<std::string> Trace;
  ExtensionTable Table;
  AbsMachineOptions Options;
  Options.TraceLog = &Trace;
  AbstractMachine M(*Program, Table, Options);
  ASSERT_EQ(M.runIteration(pid("p", 0), makeEntryPattern({})),
            AbsRunStatus::Completed);
  int Calls = 0, Explores = 0;
  for (const std::string &L : Trace) {
    if (L.starts_with("call q/1"))
      ++Calls;
    if (L.starts_with("explore q/1"))
      ++Explores;
  }
  EXPECT_EQ(Calls, 2);
  EXPECT_EQ(Explores, 1); // both calls abstract to q(int): one exploration
  int QEntries = 0;
  for (const ETEntry &E : Table.entries())
    if (Program->Module->predicateLabel(E.PredId) == "q/1")
      ++QEntries;
  EXPECT_EQ(QEntries, 1);
}

TEST_F(AbstractMachineTest, RecursiveCallFailsFirstIteration) {
  compile("r(X) :- r(X).");
  ExtensionTable Table;
  AbstractMachine M(*Program, Table);
  Pattern Entry = makeEntryPattern({PatKind::GroundP});
  ASSERT_EQ(M.runIteration(pid("r", 1), Entry), AbsRunStatus::Completed);
  // Pure recursion never produces a success pattern.
  for (const ETEntry &E : Table.entries())
    EXPECT_FALSE(E.Success.has_value());
}

TEST_F(AbstractMachineTest, StepsAccumulateAcrossIterations) {
  compile("nat(0). nat(s(N)) :- nat(N).");
  ExtensionTable Table;
  AbstractMachine M(*Program, Table);
  Pattern Entry = makeEntryPattern({PatKind::VarP});
  ASSERT_EQ(M.runIteration(pid("nat", 1), Entry), AbsRunStatus::Completed);
  uint64_t After1 = M.stepsExecuted();
  ASSERT_EQ(M.runIteration(pid("nat", 1), Entry), AbsRunStatus::Completed);
  EXPECT_GT(M.stepsExecuted(), After1);
}

TEST_F(AbstractMachineTest, StepBudgetReportsError) {
  compile("p(a, b, c, d, e, f, g, h).");
  ExtensionTable Table;
  AbsMachineOptions Options;
  Options.MaxSteps = 5; // fewer than the 8 gets + proceed of the clause
  AbstractMachine M(*Program, Table, Options);
  std::vector<PatKind> Args(8, PatKind::VarP);
  EXPECT_EQ(M.runIteration(pid("p", 8), makeEntryPattern(Args)),
            AbsRunStatus::Error);
  EXPECT_NE(M.errorMessage().find("budget"), std::string::npos);
}

TEST_F(AbstractMachineTest, TraceShowsControlProtocol) {
  compile("p(X) :- q(X).\nq(a).");
  std::vector<std::string> Trace;
  ExtensionTable Table;
  AbsMachineOptions Options;
  Options.TraceLog = &Trace;
  AbstractMachine M(*Program, Table, Options);
  ASSERT_EQ(
      M.runIteration(pid("p", 1), makeEntryPattern({PatKind::AnyP})),
      AbsRunStatus::Completed);
  std::string All;
  for (const std::string &L : Trace)
    All += L + "\n";
  EXPECT_NE(All.find("explore p/1 clause 1"), std::string::npos) << All;
  EXPECT_NE(All.find("call q/1"), std::string::npos) << All;
  EXPECT_NE(All.find("updateET(q/1 (a))"), std::string::npos) << All;
  EXPECT_NE(All.find("lookupET"), std::string::npos) << All;
}

TEST_F(AbstractMachineTest, EntrySpecErrors) {
  compile("p(a).");
  AnalysisSession A(*Program);
  EXPECT_FALSE(A.analyze("missing(var)"));
  EXPECT_FALSE(A.analyze("p(var, var)")); // wrong arity
  EXPECT_FALSE(A.analyze("p(banana)"));   // unknown kind
  EXPECT_TRUE(A.analyze("p(var)"));
}

TEST_F(AbstractMachineTest, MakeEntryPatternShapes) {
  Pattern P = makeEntryPattern(
      {PatKind::GroundP, PatKind::VarP, PatKind::ListP});
  EXPECT_EQ(P.Roots.size(), 3u);
  EXPECT_EQ(P.Nodes[P.Roots[0]].K, PatKind::GroundP);
  EXPECT_EQ(P.Nodes[P.Roots[2]].K, PatKind::ListP);
  ASSERT_EQ(P.Nodes[P.Roots[2]].ChildCount, 1);
}

TEST_F(AbstractMachineTest, ParseEntrySpecForms) {
  Result<std::pair<std::string, Pattern>> S =
      parseEntrySpec("foo(g, var, anylist, atomlist, 7)");
  ASSERT_TRUE(S) << S.diag().str();
  EXPECT_EQ(S->first, "foo");
  ASSERT_EQ(S->second.Roots.size(), 5u);
  EXPECT_EQ(S->second.Nodes[S->second.Roots[0]].K, PatKind::GroundP);
  EXPECT_EQ(S->second.Nodes[S->second.Roots[4]].K, PatKind::IntP);
  EXPECT_EQ(S->second.Nodes[S->second.Roots[4]].Num, 7);

  EXPECT_TRUE(parseEntrySpec("main"));
  EXPECT_FALSE(parseEntrySpec("f(unknownkind)"));
  EXPECT_FALSE(parseEntrySpec("(g)"));
}

TEST_F(AbstractMachineTest, ParseEntrySpecWhitespaceAndArity) {
  // Whitespace around the name, the arguments, and the whole spec.
  Result<std::pair<std::string, Pattern>> S =
      parseEntrySpec("  p ( g , var ) ");
  ASSERT_TRUE(S) << S.diag().str();
  EXPECT_EQ(S->first, "p");
  ASSERT_EQ(S->second.Roots.size(), 2u);
  EXPECT_EQ(S->second.Nodes[S->second.Roots[0]].K, PatKind::GroundP);
  EXPECT_EQ(S->second.Nodes[S->second.Roots[1]].K, PatKind::VarP);

  // Missing-arity shorthand: name/arity means all-any arguments.
  Result<std::pair<std::string, Pattern>> T = parseEntrySpec("qsort/3");
  ASSERT_TRUE(T) << T.diag().str();
  EXPECT_EQ(T->first, "qsort");
  ASSERT_EQ(T->second.Roots.size(), 3u);
  EXPECT_EQ(T->second.Nodes[T->second.Roots[2]].K, PatKind::AnyP);

  // An empty (even blank) argument list is arity 0.
  Result<std::pair<std::string, Pattern>> Z = parseEntrySpec("main( )");
  ASSERT_TRUE(Z) << Z.diag().str();
  EXPECT_EQ(Z->second.Roots.size(), 0u);

  // Negative integer literals parse as themselves.
  Result<std::pair<std::string, Pattern>> Neg = parseEntrySpec("f(-12)");
  ASSERT_TRUE(Neg) << Neg.diag().str();
  EXPECT_EQ(Neg->second.Nodes[Neg->second.Roots[0]].Num, -12);
}

TEST_F(AbstractMachineTest, ParseEntrySpecDescriptiveErrors) {
  auto expectError = [](std::string_view Spec, std::string_view Needle) {
    Result<std::pair<std::string, Pattern>> R = parseEntrySpec(Spec);
    ASSERT_FALSE(R) << "'" << Spec << "' parsed unexpectedly";
    EXPECT_NE(R.diag().str().find(Needle), std::string::npos)
        << "'" << Spec << "' error was: " << R.diag().str();
  };
  expectError("", "empty");
  expectError("p(g,)", "argument 2");
  expectError("p(-a)", "argument 1"); // previously crashed in std::stoll
  expectError("p q(g)", "whitespace");
  expectError("p(var", "missing ')'");
  expectError("foo/x", "arity");
  expectError("foo/-1", "arity");
  expectError("p(f(g))", "nested");
  expectError("p(99999999999999999999)", "argument 1"); // would overflow
}

TEST_F(AbstractMachineTest, ParsePredSigEdgeCases) {
  PredSig Sig;
  ASSERT_TRUE(parsePredSig("partition/4", Sig));
  EXPECT_EQ(Sig.Name, "partition");
  EXPECT_EQ(Sig.Arity, 4);
  // The last slash splits: operator names may contain one.
  ASSERT_TRUE(parsePredSig("//2", Sig));
  EXPECT_EQ(Sig.Name, "/");
  EXPECT_EQ(Sig.Arity, 2);
  ASSERT_TRUE(parsePredSig("main/0", Sig));
  EXPECT_EQ(Sig.Arity, 0);
  ASSERT_TRUE(parsePredSig("p/2147483647", Sig));
  EXPECT_EQ(Sig.Arity, 2147483647);

  for (const char *Bad :
       {"", "p", "p/", "/3", "p/-1", "p/+3", "p/ 3", "p/3x", "p/0x10",
        // Out of range: once these wrapped to a small arity.
        "p/2147483648", "partition/4294967300", "p/99999999999999",
        "p/99999999999999999999999999"})
    EXPECT_FALSE(parsePredSig(Bad, Sig)) << "'" << Bad << "'";
}

} // namespace
