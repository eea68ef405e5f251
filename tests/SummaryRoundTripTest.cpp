//===- tests/SummaryRoundTripTest.cpp - Bundle round-trip sweep -----------===//
//
// Satellite sweep for the summary-bundle pipeline: every Table-1
// benchmark, under every registered domain, is
// analyzed in a persistent store, exported, imported into a FRESH store
// over the same program, and re-analyzed. The warm result must be
// byte-identical to the original, export must be deterministic (two
// exports of one store agree bit-for-bit), and the chain must keep
// going: the warm store's own re-export warm-starts a third store to the
// same bytes again.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Session.h"
#include "programs/Benchmarks.h"

#include <gtest/gtest.h>

using namespace awam;

namespace {

class SummaryRoundTripTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(SummaryRoundTripTest, ExportImportAnalyzeIsByteIdentical) {
  const std::string &DomainName = std::get<0>(GetParam());
  int Checked = 0;
  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    SCOPED_TRACE(std::string(B.Name));
    SymbolTable Syms;
    TermArena Arena;
    Result<CompiledProgram> P = compileSource(B.Source, Syms, Arena);
    ASSERT_TRUE(P) << P.diag().str();

    AnalyzerOptions O;
    O.Persistent = true;
    O.DomainName = DomainName;

    AnalysisSession Cold(*P, O);
    Result<AnalysisResult> RC = Cold.analyze(B.EntrySpec);
    ASSERT_TRUE(RC) << RC.diag().str();
    Result<std::string> Bundle = Cold.exportSummaries();
    ASSERT_TRUE(Bundle) << Bundle.diag().str();

    // Export is deterministic: the same store serializes to the same
    // bytes every time.
    Result<std::string> Bundle2 = Cold.exportSummaries();
    ASSERT_TRUE(Bundle2) << Bundle2.diag().str();
    EXPECT_EQ(*Bundle2, *Bundle);

    AnalysisSession Warm(*P, O);
    Result<AnalysisStore::ImportStats> IS = Warm.importSummaries(*Bundle);
    ASSERT_TRUE(IS) << IS.diag().str();
    EXPECT_EQ(IS->DroppedStale, 0u);
    EXPECT_EQ(IS->DroppedUnresolved, 0u);
    Result<AnalysisResult> RW = Warm.analyze(B.EntrySpec);
    ASSERT_TRUE(RW) << RW.diag().str();

    // The warm analysis is byte-identical to the cold one.
    EXPECT_EQ(formatAnalysis(*RW, Syms), formatAnalysis(*RC, Syms));

    // The chain keeps going: the warm store's re-export (its own traces
    // plus the surviving imported ones — bundles compose, so the bytes
    // need not equal the first bundle) warm-starts a third store to the
    // same answer bytes again.
    Result<std::string> Again = Warm.exportSummaries();
    ASSERT_TRUE(Again) << Again.diag().str();
    AnalysisSession Third(*P, O);
    ASSERT_TRUE(Third.importSummaries(*Again));
    Result<AnalysisResult> RT = Third.analyze(B.EntrySpec);
    ASSERT_TRUE(RT) << RT.diag().str();
    EXPECT_EQ(formatAnalysis(*RT, Syms), formatAnalysis(*RC, Syms));

    // Converged cold runs with recorded traces must actually warm-start.
    if (RC->Converged && IS->Banked > 0) {
      ASSERT_NE(Warm.store(), nullptr);
      EXPECT_EQ(Warm.store()->stats().WarmQueries, 1u);
    }
    ++Checked;
  }
  EXPECT_EQ(Checked, 11);
}

// The second parameter is always 1: the analyzer is single-threaded, and
// the value keeps the sweep's test names (<domain>_t1) stable.
INSTANTIATE_TEST_SUITE_P(
    Sweep, SummaryRoundTripTest,
    ::testing::Combine(::testing::Values("modes", "pos", "det"),
                       ::testing::Values(1)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>> &I) {
      return std::get<0>(I.param) + "_t" +
             std::to_string(std::get<1>(I.param));
    });

} // namespace
