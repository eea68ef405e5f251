//===- tests/ModuleLinkTest.cpp - Cross-module linker tests ---------------===//
//
// The linker's contract: linking separately compiled units is
// observationally equivalent to compiling the concatenated source — same
// module fingerprint (clause code is relocation-invariant under the
// fingerprint's pool resolution), same concrete solutions, same analysis
// report — plus the link-time diagnostics (duplicate exports error,
// unresolved imports get near-miss messages).
//
//===----------------------------------------------------------------------===//

#include "compiler/ModuleLink.h"

#include "analyzer/Session.h"
#include "term/TermWriter.h"
#include "wam/Machine.h"

#include <gtest/gtest.h>

using namespace awam;

namespace {

constexpr std::string_view kLibSource = R"(
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
rev([], []).
rev([X|Xs], R) :- rev(Xs, T), app(T, [X], R).
len([], z).
len([_|Xs], s(N)) :- len(Xs, N).
kind(a, atom_kind).
kind(1, int_kind).
kind([], nil_kind).
kind(f(_), struct_kind).
kind([_|_], cons_kind).
)";

constexpr std::string_view kUserSource = R"(
main(R, N) :- rev([a,b,c], R), len(R, N).
classify(X, K) :- kind(X, K).
)";

class ModuleLinkTest : public ::testing::Test {
protected:
  CompiledProgram compile(std::string_view Source) {
    Result<CompiledProgram> P = compileSource(Source, Syms, Arena);
    EXPECT_TRUE(P) << (P ? "" : P.diag().str());
    return P.take();
  }

  Result<LinkedProgram> link(std::vector<const CompiledProgram *> Units) {
    std::vector<ModuleUnit> In;
    for (size_t I = 0; I != Units.size(); ++I)
      In.push_back({Units[I], "unit" + std::to_string(I)});
    return linkPrograms(In);
  }

  std::vector<std::string> solve(const CompiledProgram &P,
                                 std::string_view GoalText,
                                 int MaxSolutions = 20) {
    Parser Pr(GoalText, Syms, Arena);
    Result<const Term *> G = Pr.readTerm();
    EXPECT_TRUE(G) << (G ? "" : G.diag().str());
    int NumVars = Pr.lastTermNumVars();
    Machine M(P, MachineOptions{});
    std::vector<Solution> Sols;
    TermArena SolArena;
    RunStatus St = M.solve(*G, NumVars, SolArena, Sols, MaxSolutions);
    EXPECT_NE(St, RunStatus::Error);
    std::vector<std::string> Out;
    for (const Solution &S : Sols) {
      std::string Line;
      for (int I = 0; I != NumVars; ++I) {
        if (!S.Bindings[I])
          continue;
        if (!Line.empty())
          Line += ", ";
        Line += writeTerm(S.Bindings[I], Syms);
      }
      Out.push_back(Line);
    }
    return Out;
  }

  std::string analyzeReport(const CompiledProgram &P,
                            std::string_view Spec) {
    AnalysisSession S(P);
    Result<AnalysisResult> R = S.analyze(Spec);
    EXPECT_TRUE(R) << (R ? "" : R.diag().str());
    return R ? formatAnalysis(*R, Syms) : std::string();
  }

  SymbolTable Syms;
  TermArena Arena;
};

TEST_F(ModuleLinkTest, LinkedEqualsMonolithic) {
  CompiledProgram Lib = compile(kLibSource);
  CompiledProgram User = compile(kUserSource);
  Result<LinkedProgram> L = link({&Lib, &User});
  ASSERT_TRUE(L) << L.diag().str();
  EXPECT_TRUE(L->UnresolvedImports.empty());

  CompiledProgram Mono =
      compile(std::string(kLibSource) + std::string(kUserSource));

  // Clause code is relocation-invariant under the fingerprint's pool
  // resolution, so the linked and monolithic modules hash identically.
  EXPECT_EQ(L->Program.Module->fingerprint(), Mono.Module->fingerprint());

  // Identical concrete solutions (exercises relocated try/retry/trust
  // chains and switch tables on the real machine).
  EXPECT_EQ(solve(L->Program, "main(R, N)"), solve(Mono, "main(R, N)"));
  EXPECT_EQ(solve(L->Program, "classify(X, K)"),
            solve(Mono, "classify(X, K)"));

  // Identical analysis reports.
  EXPECT_EQ(analyzeReport(L->Program, "main(var, var)"),
            analyzeReport(Mono, "main(var, var)"));
  EXPECT_EQ(analyzeReport(L->Program, "classify(g, var)"),
            analyzeReport(Mono, "classify(g, var)"));
}

TEST_F(ModuleLinkTest, LinkOrderDoesNotChangeBehavior) {
  CompiledProgram Lib = compile(kLibSource);
  CompiledProgram User = compile(kUserSource);
  Result<LinkedProgram> LibFirst = link({&Lib, &User});
  Result<LinkedProgram> UserFirst = link({&User, &Lib});
  ASSERT_TRUE(LibFirst) << LibFirst.diag().str();
  ASSERT_TRUE(UserFirst) << UserFirst.diag().str();
  EXPECT_EQ(LibFirst->Program.Module->fingerprint(),
            UserFirst->Program.Module->fingerprint());
  EXPECT_EQ(solve(LibFirst->Program, "main(R, N)"),
            solve(UserFirst->Program, "main(R, N)"));
  EXPECT_EQ(analyzeReport(LibFirst->Program, "main(var, var)"),
            analyzeReport(UserFirst->Program, "main(var, var)"));
}

TEST_F(ModuleLinkTest, ThreeUnitChain) {
  CompiledProgram A = compile("base(1).\nbase(2).\n");
  CompiledProgram B = compile("mid(X) :- base(X).\n");
  CompiledProgram C = compile("top(X) :- mid(X).\n");
  Result<LinkedProgram> L = link({&A, &B, &C});
  ASSERT_TRUE(L) << L.diag().str();
  EXPECT_TRUE(L->UnresolvedImports.empty());
  EXPECT_EQ(solve(L->Program, "top(X)"),
            (std::vector<std::string>{"1", "2"}));
}

TEST_F(ModuleLinkTest, DuplicateExportIsAnError) {
  CompiledProgram A = compile("p(1).\n");
  CompiledProgram B = compile("p(2).\n");
  Result<LinkedProgram> L = link({&A, &B});
  ASSERT_FALSE(L);
  std::string Msg = L.diag().str();
  EXPECT_NE(Msg.find("duplicate definition of p/1"), std::string::npos)
      << Msg;
  EXPECT_NE(Msg.find("unit0"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("unit1"), std::string::npos) << Msg;
}

TEST_F(ModuleLinkTest, UnresolvedImportGetsNearMissDiagnostic) {
  CompiledProgram Lib = compile(kLibSource);
  // "apq" is an unresolved import one edit away from the exported "app".
  CompiledProgram User = compile("go(R) :- apq([a], [b], R).\n");
  Result<LinkedProgram> L = link({&Lib, &User});
  ASSERT_TRUE(L) << L.diag().str();
  ASSERT_EQ(L->UnresolvedImports.size(), 1u);
  EXPECT_NE(L->UnresolvedImports[0].find(
                "imported predicate apq/3 is not defined"),
            std::string::npos)
      << L->UnresolvedImports[0];
  EXPECT_NE(L->UnresolvedImports[0].find("did you mean app/3"),
            std::string::npos)
      << L->UnresolvedImports[0];
  // The ids line up with UndefinedPredicates.
  ASSERT_EQ(L->Program.UndefinedPredicates.size(), 1u);
  const PredicateInfo &P =
      L->Program.Module->predicate(L->Program.UndefinedPredicates[0]);
  EXPECT_EQ(Syms.name(P.Name), "apq");
  // An unresolved import is not fatal: the call just fails at runtime.
  EXPECT_TRUE(solve(L->Program, "go(R)").empty());
}

TEST_F(ModuleLinkTest, ManyUnresolvedImportsMatchOneAtATimeMessages) {
  CompiledProgram Lib = compile(kLibSource);
  // More exports near the library's names, so messages rank several
  // candidates.
  CompiledProgram Extra = compile(
      "apps(_).\nrex(_, _).\nlens(_, _, _).\nrevs(_).\nreverses(_, _).\n");
  // Near misses of every export by name and arity, longer names (wider
  // edit-distance threshold) and names with no candidate at all.
  std::string Body;
  size_t Expected = 0;
  for (std::string_view Name : {"apq", "ap", "appx", "rev", "rew", "len",
                                "lem", "kind", "kinds", "reverse",
                                "appendix", "zzz"})
    for (int Arity = 0; Arity != 5; ++Arity) {
      if ((Name == "rev" || Name == "len" || Name == "kind") && Arity == 2)
        continue; // exported by the library
      Body += Body.empty() ? "" : ", ";
      Body += std::string(Name);
      for (int A = 0; A != Arity; ++A)
        Body += A ? ", _" : "(_";
      Body += Arity ? ")" : "";
      ++Expected;
    }
  CompiledProgram User = compile("go :- " + Body + ".\n");
  Result<LinkedProgram> L = link({&Lib, &Extra, &User});
  ASSERT_TRUE(L) << L.diag().str();
  ASSERT_EQ(L->UnresolvedImports.size(), Expected);
  ASSERT_EQ(L->Program.UndefinedPredicates.size(), Expected);
  const CodeModule &M = *L->Program.Module;
  size_t WithCandidates = 0;
  for (size_t I = 0; I != Expected; ++I) {
    const PredicateInfo &P = M.predicate(L->Program.UndefinedPredicates[I]);
    EXPECT_EQ(L->UnresolvedImports[I],
              undefinedPredicateMessage(M, "imported", Syms.name(P.Name),
                                        P.Arity));
    WithCandidates += L->UnresolvedImports[I].find("did you mean") !=
                      std::string::npos;
  }
  EXPECT_EQ(WithCandidates, 47u);

  // Pinned texts: ranking by distance, arity gap, then label.
  auto messageFor = [&](std::string_view Label) {
    for (const std::string &Msg : L->UnresolvedImports)
      if (Msg.starts_with("imported predicate " + std::string(Label) + " "))
        return Msg;
    return std::string("missing ") + std::string(Label);
  };
  EXPECT_EQ(messageFor("appx/1"), "imported predicate appx/1 is not defined; "
                                  "did you mean apps/1, app/3?");
  EXPECT_EQ(messageFor("rev/3"), "imported predicate rev/3 is not defined; "
                                 "did you mean rev/2, rex/2, revs/1?");
  EXPECT_EQ(messageFor("reverse/2"), "imported predicate reverse/2 is not "
                                     "defined; did you mean reverses/2?");
  EXPECT_EQ(messageFor("appendix/1"),
            "imported predicate appendix/1 is not defined");
}

TEST_F(ModuleLinkTest, MixedSymbolTablesRejected) {
  SymbolTable OtherSyms;
  TermArena OtherArena;
  CompiledProgram A = compile("p(1).\n");
  Result<CompiledProgram> B =
      compileSource("q(2).\n", OtherSyms, OtherArena);
  ASSERT_TRUE(B);
  CompiledProgram BP = B.take();
  Result<LinkedProgram> L = link({&A, &BP});
  ASSERT_FALSE(L);
  EXPECT_NE(L.diag().str().find("different symbol table"),
            std::string::npos);
}

TEST_F(ModuleLinkTest, EmptyUnitListRejected) {
  Result<LinkedProgram> L = linkPrograms({});
  ASSERT_FALSE(L);
}

} // namespace
