//===- perfbench/harness/Common.h - Shared harness plumbing -----*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the end-to-end benchmark shares: the clock, the
/// span recorder that brackets each call into a layer's public function,
/// the raw-result document the harness hands to perfbench/run.py, the
/// independent-oracle comparison, and a forked-child runner with a
/// wall-clock limit (the analyzer is not yet total, so an operation that
/// crashes or hangs must not take the benchmark down with it).
///
/// The harness only measures and checks; all statistics (medians,
/// percentiles, self time, geomeans) are computed by perfbench/metrics.py
/// from the raw samples and spans written here.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_COMMON_H
#define PERFBENCH_HARNESS_COMMON_H

#include "analyzer/Analyzer.h"
#include "support/SymbolTable.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nanoseconds on the monotonic clock.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double msSince(int64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) / 1e6;
}

/// One span: a call into a layer (or a benchmark-level grouping), with the
/// span that caused it and, for server requests, the request id.
struct SpanRec {
  std::string Name;
  int64_t Start = 0;
  int64_t End = 0;
  int32_t Parent = -1;
  int64_t Rid = -1;
};

/// In-memory span log. Disabled (every call a no-op) unless tracing is on;
/// written out once, when the harness exits. Thread-safe: server request
/// spans are recorded from worker-thread callbacks.
class Tracer {
public:
  bool enabled() const { return On; }
  void enable() { On = true; }

  /// Opens a span under the currently open one (single-threaded nesting).
  int32_t begin(const char *Name, int64_t Rid = -1) {
    if (!On)
      return -1;
    std::lock_guard<std::mutex> L(M);
    Spans.push_back({Name, nowNs(), 0, Current, Rid});
    Current = static_cast<int32_t>(Spans.size()) - 1;
    return Current;
  }
  void end(int32_t Id) {
    if (Id < 0)
      return;
    std::lock_guard<std::mutex> L(M);
    Spans[Id].End = nowNs();
    Current = Spans[Id].Parent;
  }
  /// Records a finished span with explicit times (no nesting state).
  int32_t add(std::string Name, int64_t Start, int64_t End, int32_t Parent,
              int64_t Rid = -1) {
    if (!On)
      return -1;
    std::lock_guard<std::mutex> L(M);
    Spans.push_back({std::move(Name), Start, End, Parent, Rid});
    return static_cast<int32_t>(Spans.size()) - 1;
  }
  /// Writes one span per line: id, name, start, end, parent, rid.
  bool write(const std::string &Path) const;
  const std::vector<SpanRec> &spans() const { return Spans; }

private:
  bool On = false;
  std::mutex M;
  std::vector<SpanRec> Spans;
  int32_t Current = -1;
};

/// RAII span.
class Span {
public:
  Span(Tracer &T, const char *Name, int64_t Rid = -1)
      : T(T), Id(T.begin(Name, Rid)) {}
  ~Span() { T.end(Id); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer &T;
  int32_t Id;
};

/// The raw result of one harness run, serialized as JSON for run.py.
struct RawResult {
  std::string Workload;
  uint64_t Seed = 0;
  bool Traced = false;
  std::vector<double> SetupS;
  /// Reference time (ReferenceSampler) during each set-up, paired with
  /// SetupS.
  std::vector<double> SetupRefMs;
  /// Operations attempted and failed. An operation is one input taken
  /// from source to checked answer (a program, a corpus, a request); the
  /// timed repetitions of an input are samples of that operation, so the
  /// two counts depend on the inputs and not on how many repetitions fit
  /// in the run.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Answers that disagreed with the independent oracle (each also a
  /// failed operation).
  uint64_t Mismatches = 0;
  /// Timed outputs that differed from the output checked in set-up: the
  /// run's outputs are not correct.
  uint64_t Inconsistent = 0;
  /// One line per failure: "<program or request>: <reason>".
  std::vector<std::string> Failures;
  /// Operations that failed at least once.
  std::set<std::string> FailedOps;
  /// Notes that are not failures (e.g. programs the oracle could not
  /// finish within its limit, so their answers went unchecked).
  std::vector<std::string> Notes;
  /// Raw samples by series name (milliseconds unless the name says else).
  std::map<std::string, std::vector<double>> Samples;
  /// Scalar values: totals, counts and sizes.
  std::map<std::string, double> Values;

  void add(const std::string &Series, double V) { Samples[Series].push_back(V); }
  /// Holds a sample of the current round until endRound, which adds it
  /// with the round's reference time as the sample of "ref/<series>".
  void addInRound(const std::string &Series, double V) {
    Round.emplace_back(Series, V);
  }
  void endRound(double RefMs);
  void bump(const std::string &Key, double V) { Values[Key] += V; }
  /// Records a failure of operation \p Op; each operation fails once.
  void fail(const std::string &Op, const std::string &Why) {
    Failures.push_back(Op + ": " + Why);
    if (FailedOps.insert(Op).second)
      ++Failed;
  }
  std::string json() const;

private:
  std::vector<std::pair<std::string, double>> Round;
};

/// Runs the benchmark's own fixed reference work (map inserts and probes,
/// a string sort, regex matching and stream formatting: the kinds of work
/// the analyzer does, in code no change to the analyzer touches) and
/// returns its wall-clock milliseconds, about 1 ms on a quiet host. Taken
/// around or during each round of operations, it measures how fast the
/// shared host ran during that round: the host's speed drifts by up to
/// 1.7x within seconds, and the analyzer's times follow it.
double referenceWorkMs();

/// The reference time around a round: the mean of the times taken just
/// before and just after it.
inline double pairRef(double BeforeMs, double AfterMs) {
  return (BeforeMs + AfterMs) / 2;
}

/// Reference times taken in this process while a child does the timed
/// work (pass it to runInChild as WhileWaiting): one every 20 ms, so this
/// process is busy ~5% of the time, on another CPU. A child's operation
/// can outlast the host's speed changes, and the child's own reference
/// time would depend on the heap its work built.
class ReferenceSampler {
public:
  void reset() {
    Samples.clear();
    Last = 0;
  }
  void operator()();
  /// The median of the samples since reset (one is taken now if there are
  /// none).
  double median();

private:
  std::vector<double> Samples;
  int64_t Last = 0;
};

/// Peak resident set of this process, in KiB.
long peakRssKb();

/// The (label, call, success) lines of a result, sorted — the comparison
/// CrossValidationTest makes between the compiled analyzer and the
/// meta-interpreting baseline.
std::vector<std::string> summarize(const awam::AnalysisResult &R,
                                   const awam::SymbolTable &Syms);

/// FNV-1a over a byte string (report fingerprints sent between processes).
uint64_t fnv1a(std::string_view S);

/// Outcome of work run in a forked child.
struct ChildOutcome {
  enum Kind { Ok, Crashed, TimedOut, ExitedNonZero } K = Ok;
  int Signal = 0;
  int ExitCode = 0;
  std::string Output; ///< everything the child wrote to its pipe
  double WallMs = 0;
  std::string describe() const;
};

/// Forks, runs \p Body in the child with a pipe it can write lines to, and
/// waits at most \p LimitMs (then kills the child with SIGKILL and reaps
/// it). The child exits with Body's return value.
ChildOutcome runInChild(const std::function<int(int Fd)> &Body,
                        double LimitMs,
                        const std::function<void()> &WhileWaiting = {});

/// Runs several children at once, at most \p Parallel at a time; returns
/// outcomes in input order. Child I may run for LimitsMs[I] until it first
/// writes to its pipe and, when \p LaterLimitsMs is given, for
/// LaterLimitsMs[I] in all once it has (a check child that reports its own
/// result before it runs the slower oracle). \p WhileWaiting, when given,
/// is called each time the children have been quiet for 5 ms.
std::vector<ChildOutcome>
runChildren(const std::vector<std::function<int(int Fd)>> &Bodies,
            const std::vector<double> &LimitsMs, int Parallel,
            const std::vector<double> &LaterLimitsMs = {},
            const std::function<void()> &WhileWaiting = {});

/// Writes all of \p S to \p Fd (the child side of runInChild).
void writeAll(int Fd, const std::string &S);

/// Workload entry points.
int runTable1(RawResult &Out, Tracer &T, double Seconds);
int runCorpusLadder(RawResult &Out, Tracer &T, double Seconds);
int runServe(RawResult &Out, Tracer &T, double Seconds);
/// The serve loop itself. With \p Probe: Table 1 modules only, the
/// reference rate only, no set-up timing — the server and store layers'
/// per-layer figures inside another workload's traced run.
int runServeLoop(RawResult &Out, Tracer &T, double Seconds, bool Probe);

/// splitmix64: the benchmark's own deterministic generator.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_COMMON_H
