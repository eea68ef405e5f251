//===- perfbench/harness/Pipeline.h - Source to report, one call chain ----===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The source→report operation table1 and corpus-ladder time: parse each
/// unit, compile each unit, link when there is more than one, analyze the
/// entry, format the report. Each step is one call into a layer's public
/// function and gets its own span when tracing is on; the layer counters
/// the analysis result carries are added to the raw result's values.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_PIPELINE_H
#define PERFBENCH_HARNESS_PIPELINE_H

#include "Common.h"

#include "analyzer/Session.h"
#include "compiler/ProgramCompiler.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Everything one pipeline run produced, kept alive for the follow-on
/// specialization phase.
struct PipelineRun {
  std::unique_ptr<awam::SymbolTable> Syms;
  std::unique_ptr<awam::TermArena> Arena;
  std::vector<awam::CompiledProgram> Units;
  std::optional<awam::CompiledProgram> Linked;
  std::optional<awam::AnalysisResult> Result;
  std::string Report;
  std::string Error; ///< empty on success
  double ParseMs = 0, CompileMs = 0, LinkMs = 0, AnalyzeMs = 0, FormatMs = 0;

  const awam::CompiledProgram &program() const {
    return Linked ? *Linked : Units.front();
  }
  double frontEndMs() const { return ParseMs + CompileMs + LinkMs; }
};

/// Runs source→report over \p Sources (library units first, main unit
/// last) from entry \p Entry. With \p Counters, adds the layer counters of
/// this run to it (traced runs only).
PipelineRun runPipeline(const std::vector<std::string> &Sources,
                        const std::string &Entry, Tracer &T,
                        RawResult *Counters);

/// Adds the analyzer-layer counters of \p R to \p Out's values.
void addAnalyzerCounters(const awam::AnalysisResult &R, RawResult &Out);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_PIPELINE_H
