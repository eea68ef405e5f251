//===- perfbench/harness/CorpusLadder.cpp - Generated corpora by size -----===//
//
// Workload `corpus-ladder`: two-unit generated corpora (library + user,
// compiled separately and linked) at three sizes, kSeedsPerSize corpora
// per size. The ladder is the same in every run, so that runs with
// different seeds time the same programs; the run's seed orders the
// corpora within each round. Every timed repetition is one source→report
// run of one corpus from its drive/1 entry, in a forked child with a
// wall-clock limit: the analyzer is not yet total on these programs, and
// a crash or a hang is a failed operation, not the end of the benchmark.
//
// Set-up (untimed): one check child per corpus runs the pipeline and then
// the MetaAnalyzer oracle on the same program and compares the sorted
// (label, call, success) sets. A corpus whose pipeline fails there is a
// failed operation and is not re-attempted; a disagreement with the oracle
// is a failed operation and the corpus is still timed; one whose oracle
// does not finish in time is timed with its answer unchecked (a note).
// Timed repetitions must reproduce the checked report byte for byte.
//
// Series written: pipeline/<corpus>, frontend/<corpus> (ms) and
// clauses/<corpus>; the corpus name carries its size rank and seed.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Pipeline.h"

#include "baseline/MetaAnalyzer.h"
#include "tests/RandomProgramGen.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <sys/resource.h>

namespace perfbench {

using namespace awam;

namespace {

/// Nominal generator sizes; the generated programs land at about 7k, 29k
/// and 58k clauses.
constexpr int kSizes[] = {6000, 24000, 48000};
constexpr int kSeedsPerSize = 3;
/// Corpus seeds are kLadderSeed * 1000 + 10 * rank + k.
constexpr uint64_t kLadderSeed = 1;
/// Per-operation wall-clock limit by size rank (4-20x the pipeline).
constexpr double kLimitMs[] = {2000, 4000, 6000};
/// The check child's pipeline gets kCheckFactor times the limit; once it
/// has reported, the MetaAnalyzer oracle gets up to kOracleLimitMs more
/// (it takes at most a few seconds on the ladder's corpora, so only a
/// stalled host can run it out and turn a disagreement into a note).
constexpr double kCheckFactor = 2;
constexpr double kOracleLimitMs = 30000;
constexpr int kCheckParallel = 3;
constexpr int kSetups = 15;

struct Entry {
  std::string Name;
  int Rank = 0;
  uint64_t CorpusSeed = 0;
  testgen::Corpus C;
  int Clauses = 0;
  uint64_t RefHash = 0;
  bool Usable = false;
};

/// Child side of one operation: runs the pipeline, streams spans and
/// counters when tracing, then one result line
///   R <parse> <compile> <link> <analyze> <format> <reporthash> <rsskb>
/// or an error line "E <message>" (exit code 3).
int pipelineChild(int Fd, const Entry &E, bool Traced) {
  Tracer T;
  if (Traced)
    T.enable();
  RawResult Counters;
  int32_t Root = T.begin("pipeline");
  PipelineRun Run = runPipeline({E.C.Library, E.C.User}, E.C.Entries.back(),
                                T, Traced ? &Counters : nullptr);
  T.end(Root);
  std::ostringstream O;
  if (!Run.Error.empty()) {
    O << "E " << Run.Error << "\n";
    writeAll(Fd, O.str());
    return 3;
  }
  for (const SpanRec &S : T.spans())
    O << "S\t" << S.Name << "\t" << S.Start << "\t" << S.End << "\t"
      << S.Parent << "\n";
  for (const auto &[K, V] : Counters.Values)
    O << "C\t" << K << "\t" << V << "\n";
  char Buf[256];
  std::snprintf(Buf, sizeof Buf,
                "R %.6f %.6f %.6f %.6f %.6f %" PRIu64 " %ld\n", Run.ParseMs,
                Run.CompileMs, Run.LinkMs, Run.AnalyzeMs, Run.FormatMs,
                fnv1a(Run.Report), peakRssKb());
  O << Buf;
  if (Run.Result->Converged && E.RefHash == 0) {
    // Check child: compare against the meta-interpreting oracle.
    writeAll(Fd, O.str());
    O.str("");
    TermArena Arena;
    Result<ParsedProgram> Parsed =
        parseProgram(E.C.Library + E.C.User, *Run.Syms, Arena);
    if (!Parsed)
      return 4;
    AnalysisSession Oracle = makeBaselineSession(*Parsed, *Run.Syms);
    Result<AnalysisResult> RB = Oracle.analyze(E.C.Entries.back());
    if (!RB || !RB->Converged)
      return 4;
    O << "O "
      << (summarize(*Run.Result, *Run.Syms) == summarize(*RB, *Run.Syms)
              ? "match"
              : "mismatch")
      << "\n";
  }
  writeAll(Fd, O.str());
  return 0;
}

struct ParsedOp {
  bool HaveResult = false;
  double Parse = 0, Compile = 0, Link = 0, Analyze = 0, Format = 0;
  uint64_t Hash = 0;
  long RssKb = 0;
  std::string Error;
  std::string Oracle; ///< "match", "mismatch" or "" (did not finish)
};

/// Parses a child's pipe output; spans and counters go to \p Out / \p T
/// under the parent span \p Root.
ParsedOp parseChild(const std::string &Text, RawResult *Out, Tracer *T,
                    int32_t Root) {
  ParsedOp P;
  std::istringstream In(Text);
  std::string Line;
  std::vector<int32_t> Ids;
  while (std::getline(In, Line)) {
    if (Line.rfind("S\t", 0) == 0 && T) {
      std::istringstream L(Line.substr(2));
      std::string Name;
      int64_t S = 0, E = 0;
      int32_t Parent = -1;
      std::getline(L, Name, '\t');
      L >> S >> E >> Parent;
      Ids.push_back(T->add(Name, S, E, Parent < 0 ? Root : Ids[Parent]));
    } else if (Line.rfind("C\t", 0) == 0 && Out) {
      std::istringstream L(Line.substr(2));
      std::string Key;
      double V = 0;
      std::getline(L, Key, '\t');
      L >> V;
      Out->bump(Key, V);
    } else if (Line.rfind("R ", 0) == 0) {
      std::istringstream L(Line.substr(2));
      L >> P.Parse >> P.Compile >> P.Link >> P.Analyze >> P.Format >>
          P.Hash >> P.RssKb;
      P.HaveResult = true;
    } else if (Line.rfind("E ", 0) == 0) {
      P.Error = Line.substr(2);
    } else if (Line.rfind("O ", 0) == 0) {
      P.Oracle = Line.substr(2);
    }
  }
  return P;
}

} // namespace

int runCorpusLadder(RawResult &Out, Tracer &T, double Seconds) {
  std::vector<Entry> Ladder;
  for (int Rank = 0; Rank != 3; ++Rank)
    for (int K = 0; K != kSeedsPerSize; ++K) {
      Entry E;
      E.Rank = Rank;
      E.CorpusSeed = kLadderSeed * 1000 + static_cast<uint64_t>(Rank * 10 + K);
      testgen::CorpusOptions O;
      O.Clauses = kSizes[Rank];
      E.C = testgen::generateCorpus(E.CorpusSeed, O);
      E.Clauses = E.C.LibraryClauses + E.C.UserClauses;
      char Name[64];
      std::snprintf(Name, sizeof Name, "r%d-%dc-seed%" PRIu64, Rank,
                    E.Clauses, E.CorpusSeed);
      E.Name = Name;
      Ladder.push_back(std::move(E));
    }
  for (const Entry &E : Ladder)
    Out.Values["clauses/" + E.Name] = E.Clauses;
  Out.Values["oracle_programs"] = static_cast<double>(Ladder.size());

  // Independent answer check (untimed); doubles as each corpus's first
  // attempt, so a failing corpus costs its time limit once.
  {
    std::vector<std::function<int(int)>> Bodies;
    std::vector<double> Limits, OracleLimits;
    for (const Entry &E : Ladder) {
      Bodies.push_back([&E](int Fd) { return pipelineChild(Fd, E, false); });
      Limits.push_back(kLimitMs[E.Rank] * kCheckFactor);
      OracleLimits.push_back(Limits.back() + kOracleLimitMs);
    }
    std::vector<ChildOutcome> Res =
        runChildren(Bodies, Limits, kCheckParallel, OracleLimits);
    for (size_t I = 0; I != Ladder.size(); ++I) {
      Entry &E = Ladder[I];
      ParsedOp P = parseChild(Res[I].Output, nullptr, nullptr, -1);
      ++Out.Attempted;
      if (!P.HaveResult) {
        Out.fail(E.Name, P.Error.empty() ? Res[I].describe() : P.Error);
        continue;
      }
      // An oracle disagreement is a failed operation, but the corpus stays
      // in the timed loop: its cost is real and the ladder keeps its shape.
      if (P.Oracle == "mismatch") {
        ++Out.Mismatches;
        Out.fail(E.Name, "answer differs from the MetaAnalyzer oracle");
      } else if (P.Oracle.empty())
        Out.Notes.push_back(E.Name + ": oracle did not finish (" +
                            Res[I].describe() + "); answer unchecked");
      else
        Out.bump("oracle_checked", 1);
      E.RefHash = P.Hash;
      E.Usable = true;
    }
  }

  // Set-up time: a fresh process taking the smallest usable corpus cold.
  ReferenceSampler Sampler;
  for (int I = 0; I != kSetups; ++I) {
    const Entry *First = nullptr;
    for (const Entry &E : Ladder)
      if (E.Usable) {
        First = &E;
        break;
      }
    if (!First)
      break;
    Sampler.reset();
    int64_t S = nowNs();
    ChildOutcome C = runInChild(
        [&](int Fd) { return pipelineChild(Fd, *First, false); },
        kLimitMs[First->Rank], std::ref(Sampler));
    if (C.K != ChildOutcome::Ok)
      break;
    Out.SetupS.push_back(static_cast<double>(nowNs() - S) / 1e9);
    Out.SetupRefMs.push_back(Sampler.median());
  }

  Rng G(Out.Seed * 0x2545f491u + 29);
  std::vector<size_t> Order(Ladder.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  auto Measure = [&](double Secs, bool Traced) {
    std::string Pre = Traced ? "traced/" : "";
    int64_t Deadline = nowNs() + static_cast<int64_t>(Secs * 1e9);
    // Each operation is a round of its own, paired with the reference
    // times taken while its child runs.
    ReferenceSampler Sampler;
    bool Any = true;
    while (Any && nowNs() < Deadline) {
      Any = false;
      for (size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[G.below(I)]);
      for (size_t Idx : Order) {
        Entry &E = Ladder[Idx];
        if (!E.Usable || nowNs() >= Deadline)
          continue;
        Any = true;
        Out.bump("timed_operations", 1);
        // The operation span's request id carries the corpus size.
        int32_t Root = T.begin("operation", E.Clauses);
        Sampler.reset();
        ChildOutcome C = runInChild(
            [&](int Fd) { return pipelineChild(Fd, E, Traced); },
            kLimitMs[E.Rank], std::ref(Sampler));
        T.end(Root);
        ParsedOp P = parseChild(C.Output, Traced ? &Out : nullptr,
                                Traced ? &T : nullptr, Root);
        double RoundRef = Sampler.median();
        if (!P.HaveResult) {
          Out.fail(E.Name, P.Error.empty() ? C.describe() : P.Error);
          E.Usable = false;
          continue;
        }
        if (P.Hash != E.RefHash) {
          ++Out.Inconsistent;
          Out.fail(E.Name, "report differs from the checked one");
          E.Usable = false;
          continue;
        }
        double Pipeline = P.Parse + P.Compile + P.Link + P.Analyze + P.Format;
        Out.addInRound(Pre + "pipeline/" + E.Name, Pipeline);
        Out.addInRound(Pre + "frontend/" + E.Name, P.Parse + P.Compile + P.Link);
        Out.endRound(RoundRef);
        Out.Values["peak_rss_kb"] =
            std::max(Out.Values["peak_rss_kb"], static_cast<double>(P.RssKb));
        if (Traced)
          Out.bump("traced/pipelines", 1);
      }
    }
  };

  if (!Out.Traced) {
    Measure(Seconds, false);
    return 0;
  }
  Measure(Seconds / 2, false);
  T.enable();
  Measure(Seconds / 2, true);
  return 0;
}

} // namespace perfbench
