//===- perfbench/harness/Common.cpp - Shared harness plumbing -------------===//

#include "Common.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <fcntl.h>
#include <map>
#include <poll.h>
#include <regex>
#include <sstream>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>

namespace perfbench {

namespace {

std::string jsonString(std::string_view S) {
  std::string O = "\"";
  for (char C : S) {
    switch (C) {
    case '"': O += "\\\""; break;
    case '\\': O += "\\\\"; break;
    case '\n': O += "\\n"; break;
    case '\t': O += "\\t"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
        O += Buf;
      } else {
        O += C;
      }
    }
  }
  return O + "\"";
}

std::string jsonNumber(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

} // namespace

bool Tracer::write(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    std::fprintf(F, "%zu\t%s\t%lld\t%lld\t%d\t%lld\n", I, S.Name.c_str(),
                 static_cast<long long>(S.Start),
                 static_cast<long long>(S.End), S.Parent,
                 static_cast<long long>(S.Rid));
  }
  return std::fclose(F) == 0;
}

std::string RawResult::json() const {
  std::string O = "{";
  O += "\"workload\": " + jsonString(Workload);
  O += ", \"seed\": " + std::to_string(Seed);
  O += ", \"traced\": " + std::string(Traced ? "true" : "false");
  O += ", \"attempted\": " + std::to_string(Attempted);
  O += ", \"failed\": " + std::to_string(Failed);
  O += ", \"mismatches\": " + std::to_string(Mismatches);
  O += ", \"inconsistent\": " + std::to_string(Inconsistent);
  auto List = [&](const char *Key, const std::vector<std::string> &L) {
    O += std::string(", \"") + Key + "\": [";
    for (size_t I = 0; I != L.size(); ++I)
      O += (I ? ", " : "") + jsonString(L[I]);
    O += "]";
  };
  List("failures", Failures);
  List("notes", Notes);
  O += ", \"setup_s\": [";
  for (size_t I = 0; I != SetupS.size(); ++I)
    O += (I ? ", " : "") + jsonNumber(SetupS[I]);
  O += "], \"setup_ref_ms\": [";
  for (size_t I = 0; I != SetupRefMs.size(); ++I)
    O += (I ? ", " : "") + jsonNumber(SetupRefMs[I]);
  O += "], \"samples\": {";
  bool First = true;
  for (const auto &[K, V] : Samples) {
    O += (First ? "" : ", ") + jsonString(K) + ": [";
    for (size_t I = 0; I != V.size(); ++I)
      O += (I ? ", " : "") + jsonNumber(V[I]);
    O += "]";
    First = false;
  }
  O += "}, \"values\": {";
  First = true;
  for (const auto &[K, V] : Values) {
    O += (First ? "" : ", ") + jsonString(K) + ": " + jsonNumber(V);
    First = false;
  }
  return O + "}}\n";
}

namespace {
volatile uint64_t ReferenceSink;
} // namespace

double referenceWorkMs() {
  int64_t Start = nowNs();
  uint64_t X = 0x9e3779b97f4a7c15ULL, Sink = 0;
  auto Next = [&] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  // About half the time in hashed and ordered maps and a string sort...
  std::unordered_map<uint64_t, uint32_t> Hash;
  std::map<uint32_t, uint32_t> Ordered;
  std::vector<std::string> Names;
  for (uint32_t I = 0; I != 1000; ++I) {
    Hash[Next() % 4096] += I;
    Ordered[static_cast<uint32_t>(Next() % 8192)] = I;
    std::string Name = "p";
    Name += std::to_string(Next() % 100000);
    Name += '/';
    Name += std::to_string(I % 7);
    Names.push_back(std::move(Name));
  }
  for (uint32_t I = 0; I != 2000; ++I) {
    auto It = Hash.find(Next() % 4096);
    Sink += It == Hash.end() ? 1 : It->second;
  }
  std::sort(Names.begin(), Names.end());
  Sink += Ordered.begin()->second + Names.front().size();
  // ...and half in a backtracking regex matcher and stream formatting:
  // deep call chains and a large code footprint, as in an abstract
  // machine's dispatch. Either half alone followed the analyzer's
  // slowdowns on a shared host less closely than the two together.
  static const std::regex Pattern(
      "([a-z]+)\\(([a-z_]+(, ?)?)*\\)\\.|p[0-9]+/[0-6]");
  std::ostringstream Text;
  for (uint32_t I = 0; I != 270; ++I) {
    Text.str("");
    Text << "pred" << (Next() % 97) << "(arg_" << I << ", x, "
         << Names[I % 60] << ")." << I * 3.5;
    std::smatch M;
    std::string T = Text.str();
    Sink += std::regex_search(T, M, Pattern) ? M.length(0) : 1;
  }
  ReferenceSink = Sink;
  return msSince(Start);
}

void ReferenceSampler::operator()() {
  constexpr int64_t EveryNs = 20'000'000;
  if (nowNs() - Last < EveryNs)
    return;
  Samples.push_back(referenceWorkMs());
  Last = nowNs();
}

double ReferenceSampler::median() {
  if (Samples.empty())
    Samples.push_back(referenceWorkMs());
  std::sort(Samples.begin(), Samples.end());
  return Samples[Samples.size() / 2];
}

void RawResult::endRound(double RefMs) {
  for (auto &[Series, V] : Round) {
    add(Series, V);
    add("ref/" + Series, RefMs);
  }
  Round.clear();
}

long peakRssKb() {
  struct rusage Self {};
  getrusage(RUSAGE_SELF, &Self);
  return Self.ru_maxrss;
}

std::vector<std::string> summarize(const awam::AnalysisResult &R,
                                   const awam::SymbolTable &Syms) {
  std::vector<std::string> Lines;
  Lines.reserve(R.Items.size());
  for (const awam::AnalysisResult::Item &I : R.Items)
    Lines.push_back(I.PredLabel + " " + I.Call.str(Syms) + " -> " +
                    (I.Success ? I.Success->str(Syms) : "(fails)"));
  std::sort(Lines.begin(), Lines.end());
  return Lines;
}

uint64_t fnv1a(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ULL;
  }
  return H;
}

void writeAll(int Fd, const std::string &S) {
  size_t Off = 0;
  while (Off < S.size()) {
    ssize_t N = ::write(Fd, S.data() + Off, S.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return;
    Off += static_cast<size_t>(N);
  }
}

std::string ChildOutcome::describe() const {
  switch (K) {
  case Ok:
    return "ok";
  case Crashed:
    return "crashed (signal " + std::to_string(Signal) + ")";
  case TimedOut:
    return "timed out after " + std::to_string(static_cast<long>(WallMs)) +
           " ms";
  case ExitedNonZero:
    return "exited with code " + std::to_string(ExitCode);
  }
  return "?";
}

namespace {

struct Running {
  pid_t Pid = -1;
  int Fd = -1;
  int64_t Start = 0;
  double LimitMs = 0;
  double LaterLimitMs = 0;
  size_t Index = 0;
  bool Killed = false;
  ChildOutcome Out;
};

bool spawn(const std::function<int(int)> &Body, double LimitMs,
           double LaterLimitMs, size_t Index, Running &R) {
  int P[2];
  if (pipe(P) != 0)
    return false;
  std::fflush(nullptr);
  pid_t Pid = fork();
  if (Pid < 0) {
    close(P[0]);
    close(P[1]);
    return false;
  }
  if (Pid == 0) {
    close(P[0]);
    int Rc = Body(P[1]);
    close(P[1]);
    _exit(Rc);
  }
  close(P[1]);
  fcntl(P[0], F_SETFL, fcntl(P[0], F_GETFL) | O_NONBLOCK);
  R = Running{};
  R.Pid = Pid;
  R.Fd = P[0];
  R.Start = nowNs();
  R.LimitMs = LimitMs;
  R.LaterLimitMs = LaterLimitMs;
  R.Index = Index;
  return true;
}

/// Drains readable bytes; returns true once the pipe hit EOF.
bool drain(Running &R) {
  char Buf[65536];
  for (;;) {
    ssize_t N = read(R.Fd, Buf, sizeof Buf);
    if (N > 0) {
      R.Out.Output.append(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N == 0)
      return true;
    if (errno == EINTR)
      continue;
    return false; // EAGAIN
  }
}

void reap(Running &R) {
  int Status = 0;
  while (waitpid(R.Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  close(R.Fd);
  R.Out.WallMs = msSince(R.Start);
  if (R.Killed)
    R.Out.K = ChildOutcome::TimedOut;
  else if (WIFSIGNALED(Status)) {
    R.Out.K = ChildOutcome::Crashed;
    R.Out.Signal = WTERMSIG(Status);
  } else if (WIFEXITED(Status) && WEXITSTATUS(Status) != 0) {
    R.Out.K = ChildOutcome::ExitedNonZero;
    R.Out.ExitCode = WEXITSTATUS(Status);
  } else {
    R.Out.K = ChildOutcome::Ok;
  }
}

} // namespace

std::vector<ChildOutcome>
runChildren(const std::vector<std::function<int(int Fd)>> &Bodies,
            const std::vector<double> &LimitsMs, int Parallel,
            const std::vector<double> &LaterLimitsMs,
            const std::function<void()> &WhileWaiting) {
  std::vector<ChildOutcome> Results(Bodies.size());
  std::vector<Running> Live;
  size_t Next = 0;
  while (Next < Bodies.size() || !Live.empty()) {
    while (Next < Bodies.size() && static_cast<int>(Live.size()) < Parallel) {
      Running R;
      double Later =
          LaterLimitsMs.empty() ? LimitsMs[Next] : LaterLimitsMs[Next];
      if (!spawn(Bodies[Next], LimitsMs[Next], Later, Next, R)) {
        Results[Next].K = ChildOutcome::ExitedNonZero;
        Results[Next].ExitCode = -1;
      } else {
        Live.push_back(std::move(R));
      }
      ++Next;
    }
    if (Live.empty())
      continue;
    std::vector<pollfd> Fds;
    for (const Running &R : Live)
      Fds.push_back({R.Fd, POLLIN, 0});
    if (poll(Fds.data(), Fds.size(), 5) == 0 && WhileWaiting)
      WhileWaiting();
    for (size_t I = 0; I < Live.size();) {
      Running &R = Live[I];
      bool Eof = drain(R);
      double Limit = R.Out.Output.empty() ? R.LimitMs : R.LaterLimitMs;
      if (!Eof && !R.Killed && msSince(R.Start) > Limit) {
        kill(R.Pid, SIGKILL);
        R.Killed = true;
        // The pipe reaches EOF once the killed child is gone.
      }
      if (Eof) {
        reap(R);
        Results[R.Index] = std::move(R.Out);
        Live.erase(Live.begin() + static_cast<long>(I));
        continue;
      }
      ++I;
    }
  }
  return Results;
}

ChildOutcome runInChild(const std::function<int(int Fd)> &Body,
                        double LimitMs,
                        const std::function<void()> &WhileWaiting) {
  return runChildren({Body}, {LimitMs}, 1, {}, WhileWaiting).front();
}

} // namespace perfbench
