//===- perfbench/harness/Table1.cpp - The paper's 11 programs -------------===//
//
// Workload `table1`: a single-threaded closed loop over the paper's Table 1
// programs. Each round runs every program source→report in a seeded
// order. The last kRunShare of the measured time runs the specialization
// phase instead, on each program's last analysis:
// buildSpecializationFacts → specializeProgram → main/0 on the original
// and on the specialized module.
//
// Set-up (untimed): each program's answer is checked against the
// meta-interpreting baseline (MetaAnalyzer), and main/0 must prove on
// both modules with identical output. Every timed operation's report must
// then be byte-identical to the checked one.
//
// Series written: pipeline/<prog>, frontend/<prog>, specialize/<prog>,
// run/<prog>, optrun/<prog> (ms); traced halves use the prefix "traced/".
// A traced run ends with the serve loop in probe mode over the same
// programs, for the store and server layers' figures.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Pipeline.h"

#include "analyzer/Specialize.h"
#include "baseline/MetaAnalyzer.h"
#include "compiler/Specializer.h"
#include "programs/Benchmarks.h"
#include "wam/Machine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

using namespace awam;

namespace {

/// Share of the measured time given to the specialization phase.
constexpr double kRunShare = 0.2;
constexpr int kSetups = 21;
/// Traced runs only: seconds of the open-loop server probe.
constexpr double kProbeSeconds = 2;

struct Program {
  std::string Name;
  std::string Source;
  std::string Entry;
  std::string Reference; ///< the oracle-checked report
  bool Usable = false;
};

struct RunPhase {
  bool Ok = false;
  std::string Error;
  double SpecializeMs = 0, RunMs = 0, OptRunMs = 0;
};

/// The specialization phase on a finished pipeline run: facts →
/// specialized module → main/0 on both modules.
RunPhase runSpecialized(PipelineRun &P, Tracer &T, RawResult *Counters) {
  RunPhase Out;
  CompiledProgram Opt;
  int64_t S = nowNs();
  {
    Span Sp(T, "analyzer.facts");
    SpecializationFacts F = buildSpecializationFacts(*P.Result, P.program());
    Span Sp2(T, "compiler.specialize");
    SpecializationReport Rep;
    Opt = specializeProgram(P.program(), F, Rep);
  }
  Out.SpecializeMs = msSince(S);

  Parser GoalParser("main", *P.Syms, *P.Arena);
  Result<const Term *> Goal = GoalParser.readTerm();
  if (!Goal || !*Goal) {
    Out.Error = "cannot parse goal main";
    return Out;
  }
  auto Run = [&](const CompiledProgram &Prog, const char *SpanName,
                 double &Ms, MachineStats &Stats, std::string &Output) {
    S = nowNs();
    Span Sp(T, SpanName);
    Machine M(Prog);
    bool Proved = M.proves(*Goal);
    Ms = msSince(S);
    Stats = M.stats();
    Output = M.output();
    return Proved;
  };
  MachineStats Orig, Spec;
  std::string OrigOut, SpecOut;
  bool P1 = Run(P.program(), "wam.run", Out.RunMs, Orig, OrigOut);
  bool P2 = Run(Opt, "wam.run_opt", Out.OptRunMs, Spec, SpecOut);
  if (!P1 || !P2) {
    Out.Error = std::string("main/0 did not prove on the ") +
                (P1 ? "specialized" : "original") + " module";
    return Out;
  }
  if (OrigOut != SpecOut) {
    Out.Error = "main/0 output differs between original and specialized";
    return Out;
  }
  if (Counters) {
    Counters->bump("wam.instructions", static_cast<double>(Orig.Instructions));
    Counters->bump("wam.opt_instructions",
                   static_cast<double>(Spec.Instructions));
    Counters->bump("wam.fast_path_hits",
                   static_cast<double>(Spec.FastPathHits));
  }
  Out.Ok = true;
  return Out;
}

/// Checks one program against the oracle; returns the failure reason or
/// "" (and the reference report).
std::string checkProgram(Program &P) {
  Tracer Off;
  PipelineRun Run = runPipeline({P.Source}, P.Entry, Off, nullptr);
  if (!Run.Error.empty())
    return Run.Error;

  TermArena Arena;
  Result<ParsedProgram> Parsed = parseProgram(P.Source, *Run.Syms, Arena);
  if (!Parsed)
    return "oracle parse error";
  AnalysisSession Oracle = makeBaselineSession(*Parsed, *Run.Syms);
  Result<AnalysisResult> RB = Oracle.analyze(P.Entry);
  if (!RB || !RB->Converged)
    return "oracle did not finish";
  if (summarize(*Run.Result, *Run.Syms) != summarize(*RB, *Run.Syms))
    return "answer differs from the MetaAnalyzer oracle";

  RunPhase R = runSpecialized(Run, Off, nullptr);
  if (!R.Ok)
    return R.Error;
  P.Reference = Run.Report;
  return "";
}

} // namespace

int runTable1(RawResult &Out, Tracer &T, double Seconds) {
  Rng G(Out.Seed * 0x51ed27u + 11);
  std::vector<Program> Progs;
  for (const BenchmarkProgram &B : benchmarkPrograms())
    Progs.push_back({std::string(B.Name), std::string(B.Source),
                     std::string(B.EntrySpec), "", false});

  // Independent answer check (untimed).
  for (Program &P : Progs) {
    std::string Why = checkProgram(P);
    ++Out.Attempted;
    if (!Why.empty()) {
      Out.fail(P.Name, Why);
      if (Why.find("oracle") != std::string::npos)
        ++Out.Mismatches;
      continue;
    }
    P.Usable = true;
  }
  for (const Program &P : Progs)
    Out.Values["source_bytes/" + P.Name] = static_cast<double>(P.Source.size());
  Out.Values["oracle_programs"] = static_cast<double>(Progs.size());
  Out.Values["oracle_checked"] = static_cast<double>(
      std::count_if(Progs.begin(), Progs.end(),
                    [](const Program &P) { return P.Usable; }));

  // Set-up time: a fresh process taking the whole suite once, cold. Its
  // peak resident set is the workload's memory figure: the harness's own
  // peak depends on the seeded order of the timed loop (16.5-18.7 MB over
  // ten seeds), a cold pass over the suite does not.
  ReferenceSampler Sampler;
  std::vector<double> RssKb;
  for (int I = 0; I != kSetups; ++I) {
    Sampler.reset();
    int64_t S = nowNs();
    ChildOutcome C = runInChild(
        [&](int Fd) {
          Tracer Off;
          for (Program &P : Progs) {
            if (!P.Usable)
              continue;
            PipelineRun Run = runPipeline({P.Source}, P.Entry, Off, nullptr);
            if (!Run.Error.empty() || !runSpecialized(Run, Off, nullptr).Ok)
              return 1;
          }
          writeAll(Fd, std::to_string(peakRssKb()) + "\n");
          return 0;
        },
        60000, std::ref(Sampler));
    if (C.K != ChildOutcome::Ok) {
      ++Out.Attempted;
      Out.fail("set-up", C.describe());
      return 0;
    }
    Out.SetupS.push_back(static_cast<double>(nowNs() - S) / 1e9);
    Out.SetupRefMs.push_back(Sampler.median());
    RssKb.push_back(std::strtod(C.Output.c_str(), nullptr));
  }
  std::sort(RssKb.begin(), RssKb.end());
  Out.Values["peak_rss_kb"] = RssKb[RssKb.size() / 2];

  std::vector<size_t> Order;
  for (size_t I = 0; I != Progs.size(); ++I)
    if (Progs[I].Usable)
      Order.push_back(I);
  if (Order.empty())
    return 0;

  // Pipeline rounds first, then the specialization phase on each
  // program's last pipeline run: a concrete run leaves the caches cold,
  // and interleaved with the pipelines it would set their tail.
  auto Measure = [&](double Secs, bool Traced) {
    std::string Pre = Traced ? "traced/" : "";
    RawResult *Counters = Traced ? &Out : nullptr;
    int64_t Begin = nowNs();
    int64_t RunsFrom = Begin + static_cast<int64_t>(Secs * (1 - kRunShare) * 1e9);
    int64_t Deadline = Begin + static_cast<int64_t>(Secs * 1e9);
    std::vector<PipelineRun> Last(Progs.size());
    auto Shuffle = [&] {
      for (size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[G.below(I)]);
    };
    // Every sample is paired with the reference time around its round.
    double Ref = referenceWorkMs();
    auto EndRound = [&] {
      double After = referenceWorkMs();
      Out.endRound(pairRef(Ref, After));
      Ref = After;
    };
    while (nowNs() < RunsFrom) {
      Shuffle();
      for (size_t Idx : Order) {
        Program &P = Progs[Idx];
        Out.bump("timed_operations", 1);
        int64_t S = nowNs();
        int32_t Root = T.begin("pipeline");
        PipelineRun Run = runPipeline({P.Source}, P.Entry, T, Counters);
        T.end(Root);
        double Ms = msSince(S);
        if (!Run.Error.empty()) {
          Out.fail(P.Name, Run.Error);
          continue;
        }
        if (Run.Report != P.Reference) {
          ++Out.Inconsistent;
          Out.fail(P.Name, "report differs from the checked one");
          continue;
        }
        Out.addInRound(Pre + "pipeline/" + P.Name, Ms);
        Out.addInRound(Pre + "frontend/" + P.Name, Run.frontEndMs());
        if (Traced)
          Out.bump("traced/pipelines", 1);
        Last[Idx] = std::move(Run);
      }
      EndRound();
    }
    while (nowNs() < Deadline) {
      Shuffle();
      for (size_t Idx : Order) {
        Program &P = Progs[Idx];
        if (!Last[Idx].Result)
          continue;
        Out.bump("timed_operations", 1);
        int32_t Root = T.begin("specialize_run");
        RunPhase R = runSpecialized(Last[Idx], T, Counters);
        T.end(Root);
        if (!R.Ok) {
          ++Out.Inconsistent;
          Out.fail(P.Name, R.Error);
          continue;
        }
        Out.addInRound(Pre + "specialize/" + P.Name, R.SpecializeMs);
        Out.addInRound(Pre + "run/" + P.Name, R.RunMs);
        Out.addInRound(Pre + "optrun/" + P.Name, R.OptRunMs);
        if (Traced)
          Out.bump("traced/run_phases", 1);
      }
      EndRound();
    }
  };

  if (!Out.Traced) {
    Measure(Seconds, false);
    return 0;
  }
  Measure(Seconds / 2, false);
  T.enable();
  Measure(Seconds / 2, true);
  // The store and server layers are reached only through the service;
  // measure them from outside on these same programs.
  return runServeLoop(Out, T, kProbeSeconds, true);
}

} // namespace perfbench
