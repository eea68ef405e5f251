//===- perfbench/harness/Pipeline.cpp - Source to report ------------------===//

#include "Pipeline.h"

#include "compiler/ModuleLink.h"

namespace perfbench {

using namespace awam;

void addAnalyzerCounters(const AnalysisResult &R, RawResult &Out) {
  const PerfCounters &C = R.Counters;
  Out.bump("analyzer.instructions", static_cast<double>(R.Instructions));
  Out.bump("analyzer.activation_runs", static_cast<double>(C.ActivationRuns));
  Out.bump("analyzer.et_probes", static_cast<double>(R.TableProbes));
  Out.bump("analyzer.et_entries", static_cast<double>(R.Items.size()));
  Out.bump("analyzer.intern_hits", static_cast<double>(C.InternHits));
  Out.bump("analyzer.intern_lookups",
           static_cast<double>(C.InternHits + C.InternMisses));
  Out.bump("analyzer.lub_hits", static_cast<double>(C.LubCacheHits));
  Out.bump("analyzer.lub_lookups",
           static_cast<double>(C.LubCacheHits + C.LubCacheMisses));
  Out.bump("analyzer.dep_edges", static_cast<double>(C.DepEdges));
}

PipelineRun runPipeline(const std::vector<std::string> &Sources,
                        const std::string &Entry, Tracer &T,
                        RawResult *Counters) {
  PipelineRun Run;
  Run.Syms = std::make_unique<SymbolTable>();
  Run.Arena = std::make_unique<TermArena>();

  std::vector<ParsedProgram> Parsed;
  int64_t S = nowNs();
  for (const std::string &Src : Sources) {
    Span Sp(T, "term.parse");
    Result<ParsedProgram> P = parseProgram(Src, *Run.Syms, *Run.Arena);
    if (!P) {
      Run.Error = "parse error: " + P.diag().str();
      return Run;
    }
    Parsed.push_back(P.take());
  }
  Run.ParseMs = msSince(S);

  S = nowNs();
  for (const ParsedProgram &P : Parsed) {
    Span Sp(T, "compiler.compile");
    Result<CompiledProgram> C = compileProgram(P, *Run.Syms);
    if (!C) {
      Run.Error = "compile error: " + C.diag().str();
      return Run;
    }
    Run.Units.push_back(C.take());
  }
  Run.CompileMs = msSince(S);

  if (Run.Units.size() > 1) {
    S = nowNs();
    std::vector<ModuleUnit> In;
    for (size_t I = 0; I != Run.Units.size(); ++I)
      In.push_back({&Run.Units[I], "unit" + std::to_string(I)});
    Span Sp(T, "compiler.link");
    Result<LinkedProgram> L = linkPrograms(In);
    if (!L) {
      Run.Error = "link error: " + L.diag().str();
      return Run;
    }
    Run.Linked.emplace(std::move(L->Program));
    Run.LinkMs = msSince(S);
  }

  S = nowNs();
  {
    Span Sp(T, "analyzer.analyze");
    AnalysisSession A(Run.program());
    Result<AnalysisResult> R = A.analyze(Entry);
    if (!R) {
      Run.Error = "analysis error: " + R.diag().str();
      return Run;
    }
    Run.Result.emplace(R.take());
  }
  Run.AnalyzeMs = msSince(S);
  if (!Run.Result->Converged) {
    Run.Error = "analysis did not converge";
    return Run;
  }

  S = nowNs();
  {
    Span Sp(T, "analyzer.format");
    Run.Report = formatAnalysis(*Run.Result, *Run.Syms);
  }
  Run.FormatMs = msSince(S);

  if (Counters) {
    int64_t Code = 0;
    for (const CompiledProgram &U : Run.Units)
      Code += U.Module->codeSize();
    Counters->bump("compiler.code_size", static_cast<double>(Code));
    addAnalyzerCounters(*Run.Result, *Counters);
  }
  return Run;
}

} // namespace perfbench
