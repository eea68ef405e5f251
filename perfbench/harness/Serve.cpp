//===- perfbench/harness/Serve.cpp - Open loop into AnalysisServer --------===//
//
// Workload `serve`: an open loop into AnalysisServer with kWorkers worker
// threads and kClients logical clients, over the 11 Table 1 programs plus
// one generated corpus of about 7k clauses (library + user units, linked
// by the server's multi-unit load).
//
// Each client follows a seeded script of sessions: `load M`, `entry MAIN`,
// then a fixed mix (kSessionMix) of repeated reads (response-cache hits),
// new most-general specs (drains), `edit P/A` writes (invalidate +
// reanalyze) and `export`/`import` of the client's own summary bundle.
// Requests fall due on a fixed schedule at each offered rate of kLevels —
// round-robin over the clients — and are sent when due whether or not
// earlier ones have answered. Latency runs from the due time to the
// answer; generator lag is the send time minus the due time. The loop
// runs in a forked child with a wall-clock limit: a request that never
// answers costs the requests queued behind it (failed), not the run.
//
// Set-up (untimed): the corpus's drive/1 is answered alone and compared
// with the MetaAnalyzer, then every client's whole script is replayed
// alone on a fresh single-worker server in a forked child. Those payloads
// are the reference the measured responses must match byte for byte. A
// module on which a check crashes or hangs is refused for the run: its
// requests are not sent and count as failed.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "analyzer/Server.h"
#include "analyzer/Session.h"
#include "baseline/MetaAnalyzer.h"
#include "compiler/ModuleLink.h"
#include "programs/Benchmarks.h"
#include "tests/RandomProgramGen.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <sstream>
#include <thread>

namespace perfbench {

using namespace awam;

namespace {

constexpr int kWorkers = 3; ///< nproc - 1 on the reference 4-CPU host
constexpr int kClients = 4;
/// Offered rates (requests/s) and the share of the run each is held.
/// Level 1 is the reference rate.
constexpr double kLevels[] = {100, 200, 400, 800};
constexpr double kShares[] = {0.2, 0.4, 0.2, 0.2};
constexpr int kRefLevel = 1;
constexpr int kSetups = 3;
constexpr double kReplayLimitMs = 20000;
constexpr double kCorpusCheckMs = 8000;
/// Store probe: most-general roots analyzed besides the main entry.
constexpr size_t kProbeRoots = 4;
/// How long a level may take to drain after its last request fell due.
constexpr double kDrainLimitMs = 5000;
/// The open loop's limit beyond its levels and drains (server set-up).
constexpr double kLoopSlackMs = 10000;

struct Module {
  std::string Load;     ///< operands of the load verb
  std::vector<std::string> Units; ///< sources, libraries first
  std::string MainSpec; ///< first query of every session
  std::vector<std::string> Sigs; ///< defined predicates, name/arity
  bool Refused = false;
};

struct Line {
  std::string Text;
  int Mod = 0;
  char Kind = 'r'; ///< l load, m main, r read, n new spec, w edit, x/i bundle
};

struct Slot {
  int64_t Due = 0, Sent = 0, Done = 0;
  int Client = 0;
  size_t LineIdx = 0;
  uint64_t Hash = 0;
  bool Error = false;
  bool Refused = false;
  int Level = 0;
  char Kind = 'r';
};

bool isErrorText(const std::string &Err) {
  static const char *Prefixes[] = {"analysis error", "error:",  "link error",
                                   "export error",   "import error",
                                   "unknown ",       "bad edit", "no program",
                                   "no store",       "cannot open"};
  for (const char *P : Prefixes)
    if (Err.rfind(P, 0) == 0 || Err.find(std::string("\n") + P) !=
                                    std::string::npos)
      return true;
  return Err.find("what?") != std::string::npos;
}

/// Defined predicates of a module (name/arity), via the benchmark's own
/// compile of it.
std::vector<std::string> definedSigs(const std::vector<std::string> &Units,
                                     const std::string &Skip) {
  SymbolTable Syms;
  TermArena Arena;
  std::vector<CompiledProgram> Compiled;
  for (const std::string &U : Units) {
    Result<CompiledProgram> C = compileSource(U, Syms, Arena);
    if (!C)
      return {};
    Compiled.push_back(C.take());
  }
  std::vector<std::string> Out;
  for (const CompiledProgram &C : Compiled)
    for (int32_t I = 0; I != C.Module->numPredicates(); ++I) {
      const PredicateInfo &PI = C.Module->predicate(I);
      if (PI.Clauses.empty())
        continue;
      std::string Sig =
          std::string(Syms.name(PI.Name)) + "/" + std::to_string(PI.Arity);
      if (Sig != Skip)
        Out.push_back(Sig);
    }
  return Out;
}

/// Per session, after `load` and the main entry: the fixed request mix,
/// in a seeded order (so every seed offers the same amount of each kind).
constexpr char kSessionMix[] = "rrrrrrrrrrrrrrrrrrrnnnnwwwxi";
/// Every kCorpusEvery-th session of a client is on the corpus.
constexpr size_t kCorpusEvery = 6;

/// One client's script: sessions over the modules, the corpus on a fixed
/// rotation (staggered across clients), the Table 1 programs in a seeded
/// order; the seed picks the order of each session's requests and which
/// predicates they name.
std::vector<Line> makeScript(const std::vector<Module> &Mods, int Client,
                             uint64_t Seed, size_t Length, bool HasCorpus) {
  Rng G(Seed * 7919 + static_cast<uint64_t>(Client) * 104729 + 3);
  const size_t NumTable = Mods.size() - (HasCorpus ? 1 : 0);
  std::vector<size_t> Order(NumTable);
  for (size_t I = 0; I != NumTable; ++I)
    Order[I] = I;
  for (size_t I = NumTable; I > 1; --I)
    std::swap(Order[I - 1], Order[G.below(I)]);
  std::vector<Line> S;
  std::vector<std::vector<std::string>> Asked(Mods.size());
  std::vector<size_t> NextNew(Mods.size());
  for (size_t &N : NextNew)
    N = G.below(1000);
  std::string Tag = "c" + std::to_string(Client);
  size_t TableSessions = 0;
  for (size_t K = 0; S.size() < Length; ++K) {
    bool OnCorpus = HasCorpus && (K + static_cast<size_t>(Client)) %
                                         kCorpusEvery ==
                                     kCorpusEvery - 1;
    int M = OnCorpus ? static_cast<int>(NumTable)
                     : static_cast<int>(Order[TableSessions++ % NumTable]);
    const Module &Mo = Mods[M];
    S.push_back({"load " + Mo.Load, M, 'l'});
    S.push_back({"entry " + Mo.MainSpec, M, 'm'});
    std::string Mix = kSessionMix;
    for (size_t I = Mix.size(); I > 1; --I)
      std::swap(Mix[I - 1], Mix[G.below(I)]);
    if (Mix.find('i') < Mix.find('x'))
      std::swap(Mix[Mix.find('i')], Mix[Mix.find('x')]);
    for (char Kind : Mix) {
      if (Mo.Sigs.empty() && Kind != 'x' && Kind != 'i')
        Kind = 'r';
      switch (Kind) {
      case 'r': {
        const auto &A = Asked[M];
        S.push_back({"entry " + (A.empty() ? Mo.MainSpec
                                           : A[G.below(A.size())]),
                     M, 'r'});
        break;
      }
      case 'n': {
        // New most-general spec, in a per-client order over the module.
        const std::string &Sig = Mo.Sigs[NextNew[M]++ % Mo.Sigs.size()];
        Asked[M].push_back(Sig);
        S.push_back({"entry " + Sig, M, 'n'});
        break;
      }
      case 'w':
        S.push_back({"edit " + Mo.Sigs[G.below(Mo.Sigs.size())], M, 'w'});
        break;
      default:
        S.push_back({(Kind == 'x' ? "export " : "import ") + Tag, M, Kind});
      }
    }
  }
  S.resize(Length);
  return S;
}

AnalysisServer::Config serverConfig(const testgen::Corpus &C, int Workers) {
  AnalysisServer::Config Cfg;
  Cfg.Workers = Workers;
  Cfg.LoadSource = [&C](const std::string &Spec, std::string &Source,
                        std::string &Err) {
    if (Spec == "corpus:lib") {
      Source = C.Library;
      return true;
    }
    if (Spec == "corpus:user") {
      Source = C.User;
      return true;
    }
    if (Spec.rfind("bench:", 0) == 0)
      if (const BenchmarkProgram *B = findBenchmark(Spec.substr(6))) {
        Source = B->Source;
        return true;
      }
    Err = "cannot open " + Spec + "\n";
    return false;
  };
  return Cfg;
}

/// Replays one client's script alone on a fresh single-worker server,
/// streaming "L <index> <payload hash>" per line (the crash position is the
/// first missing index).
int replayChild(int Fd, const testgen::Corpus &C, const std::vector<Line> &S,
                const std::vector<Module> &Mods) {
  AnalysisServer Srv(serverConfig(C, 1));
  int Id = Srv.openClient();
  for (size_t I = 0; I != S.size(); ++I) {
    if (Mods[S[I].Mod].Refused)
      continue;
    AnalysisServer::Response R = Srv.execute(Id, S[I].Text);
    char Buf[96];
    std::snprintf(Buf, sizeof Buf, "L %zu %" PRIu64 "\n", I, fnv1a(R.Out));
    writeAll(Fd, Buf);
  }
  return 0;
}


/// Loads every module that is not refused and answers its main entry.
void warmUp(AnalysisServer &Srv, const std::vector<Module> &Mods) {
  int Id = Srv.openClient();
  for (const Module &M : Mods) {
    if (M.Refused)
      continue;
    Srv.execute(Id, "load " + M.Load);
    Srv.execute(Id, "entry " + M.MainSpec);
  }
  Srv.closeClient(Id);
}

/// Child side of the open loop: a warmed-up server, then every slot sent
/// when it falls due. Streams one line per request as it answers,
///   Q <slot> <due> <sent> <done> <payload hash> <0 ok | 1 error | 2 refused>
/// one line per level after its drain, "O <level> <outstanding> <drain ms>",
/// and the server counters, "T <queries> <hits> <drains> <coalesced>
/// <requests> <peak rss kb>". Lines are shorter than PIPE_BUF, so writes
/// from the worker threads do not interleave.
int openLoop(int Fd, std::vector<Slot> Slots,
             const std::vector<std::vector<Line>> &Scripts,
             const std::vector<Module> &Mods, const testgen::Corpus &Corpus,
             int FirstLevel, int EndLevel) {
  AnalysisServer Srv(serverConfig(Corpus, kWorkers));
  warmUp(Srv, Mods);
  int ClientIds[kClients];
  for (int C = 0; C != kClients; ++C)
    ClientIds[C] = Srv.openClient();
  auto Report = [Fd](size_t Idx, const Slot &S, int State) {
    char Buf[160];
    std::snprintf(Buf, sizeof Buf,
                  "Q %zu %" PRId64 " %" PRId64 " %" PRId64 " %" PRIu64 " %d\n",
                  Idx, S.Due, S.Sent, S.Done, S.Hash, State);
    writeAll(Fd, Buf);
  };

  std::atomic<size_t> Completed{0};
  size_t Submitted = 0;
  int64_t Start = nowNs() + 20'000'000;
  for (Slot &S : Slots)
    S.Due += Start;
  size_t Next = 0;
  for (int L = FirstLevel; L != EndLevel; ++L) {
    while (Next < Slots.size() && Slots[Next].Level == L) {
      Slot &S = Slots[Next];
      size_t Idx = Next++;
      const Line &Ln = Scripts[S.Client][S.LineIdx];
      int64_t Now = nowNs();
      if (Now < S.Due)
        std::this_thread::sleep_for(std::chrono::nanoseconds(S.Due - Now));
      if (Mods[Ln.Mod].Refused) {
        S.Sent = S.Done = nowNs();
        Report(Idx, S, 2);
        continue;
      }
      S.Sent = nowNs();
      ++Submitted;
      Srv.submit(ClientIds[S.Client], Ln.Text,
                 [&S, Idx, &Completed, &Report](
                     const AnalysisServer::Response &R) {
                   S.Done = nowNs();
                   S.Hash = fnv1a(R.Out);
                   Report(Idx, S, isErrorText(R.Err) ? 1 : 0);
                   Completed.fetch_add(1, std::memory_order_release);
                 });
    }
    // The backlog when the level's last request fell due, then drain.
    size_t Outstanding = Submitted - Completed.load();
    int64_t DrainStart = nowNs();
    while (Completed.load(std::memory_order_acquire) != Submitted &&
           msSince(DrainStart) < kDrainLimitMs)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    char Buf[96];
    std::snprintf(Buf, sizeof Buf, "O %d %zu %.6f\n", L, Outstanding,
                  msSince(DrainStart));
    writeAll(Fd, Buf);
  }
  AnalysisServer::Stats St = Srv.stats();
  char Buf[160];
  std::snprintf(Buf, sizeof Buf,
                "T %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                " %ld\n",
                St.Queries, St.CacheHits, St.Drains, St.Coalesced,
                St.Requests, peakRssKb());
  writeAll(Fd, Buf);
  // A request that never answers keeps the server from shutting down;
  // the parent's limit ends the child then.
  while (Completed.load(std::memory_order_acquire) != Submitted)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return 0;
}

/// The store layer, measured from outside through the session's public
/// functions on each of \p Probe's modules: kProbeRoots most-general roots
/// and the main entry drained into one persistent store, an edit +
/// reanalyze (journal replay), export of the summary bundle and its import
/// into a fresh session.
void storeProbe(RawResult &Out, Tracer &T, const std::vector<Module> &Probe) {
  AnalyzerOptions AO;
  AO.Persistent = true;
  Rng G(Out.Seed * 31 + 7);
  for (const Module &M : Probe) {
    if (M.Refused || M.Sigs.empty())
      continue;
    SymbolTable Syms;
    TermArena Arena;
    std::vector<CompiledProgram> Units;
    int32_t Root = T.begin("store_probe");
    for (const std::string &U : M.Units) {
      Result<CompiledProgram> C = [&] {
        Span Sp(T, "compiler.compile");
        return compileSource(U, Syms, Arena);
      }();
      if (!C) {
        T.end(Root);
        return;
      }
      Units.push_back(C.take());
    }
    std::optional<LinkedProgram> Linked;
    if (Units.size() > 1) {
      std::vector<ModuleUnit> In;
      for (const CompiledProgram &U : Units)
        In.push_back({&U, "unit"});
      Span Sp(T, "compiler.link");
      Result<LinkedProgram> L = linkPrograms(In);
      if (!L) {
        T.end(Root);
        return;
      }
      Linked.emplace(L.take());
    }
    const CompiledProgram &Prog = Linked ? Linked->Program : Units.front();
    AnalysisSession S(Prog, AO);
    // Several roots, so the edit's re-answer can replay the journals of
    // the roots outside its cone.
    Result<AnalysisResult> R = [&] {
      Span Sp(T, "store.analyze");
      for (size_t I = 0; I != std::min<size_t>(kProbeRoots, M.Sigs.size());
           ++I)
        (void)S.analyze(M.Sigs[I]);
      return S.analyze(M.MainSpec);
    }();
    if (!R) {
      T.end(Root);
      continue;
    }
    const std::string &Sig = M.Sigs[G.below(M.Sigs.size())];
    PredSig PS;
    PS.Name = Sig.substr(0, Sig.rfind('/'));
    PS.Arity = std::stoi(Sig.substr(Sig.rfind('/') + 1));
    {
      Span Sp(T, "store.reanalyze");
      (void)S.reanalyze({PS}, M.MainSpec);
    }
    // The edit's replay split: the session's reanalyze statistics, or the
    // store's warm-drain counters when the store ran the re-answer.
    const AnalysisStore::Stats &SS = S.store()->stats();
    const IncrementalScheduler::ReanalyzeStats *RS = S.reanalyzeStats();
    Out.bump("store.replayed", static_cast<double>(
                                   RS ? RS->ReplayedActivations
                                      : SS.ReplayedActivations));
    Out.bump("store.executed", static_cast<double>(
                                   RS ? RS->ExecutedActivations
                                      : SS.ExecutedActivations));
    Out.bump("store.bytes", static_cast<double>(S.store()->bytesUsed()));
    Result<std::string> B = [&] {
      Span Sp(T, "store.export");
      return S.exportSummaries();
    }();
    if (B) {
      Out.bump("store.bundle_bytes", static_cast<double>(B->size()));
      AnalysisSession W(Prog, AO);
      Span Sp(T, "store.import");
      (void)W.importSummaries(*B);
    }
    Out.bump("store.probes", 1);
    T.end(Root);
  }
}

} // namespace

int runServeLoop(RawResult &Out, Tracer &T, double Seconds, bool Probe) {
  // Inputs: the Table 1 programs plus (unless probing) one seeded corpus,
  // the last module.
  testgen::CorpusOptions CO;
  CO.Clauses = 6000;
  testgen::Corpus Corpus;
  if (!Probe)
    Corpus = testgen::generateCorpus(Out.Seed * 1000 + 500, CO);
  std::vector<Module> Mods;
  for (const BenchmarkProgram &B : benchmarkPrograms())
    Mods.push_back({"bench:" + std::string(B.Name), {std::string(B.Source)},
                    std::string(B.EntrySpec),
                    definedSigs({std::string(B.Source)}, "main/0"), false});
  if (!Probe) {
    Mods.push_back({"corpus:user corpus:lib",
                    {Corpus.Library, Corpus.User},
                    "drive/1",
                    definedSigs({Corpus.Library, Corpus.User}, "drive/1"),
                    false});
  }
  // A probe holds the reference rate only.
  const int FirstLevel = Probe ? kRefLevel : 0;
  const int EndLevel = Probe ? kRefLevel + 1 : 4;

  // The schedule: requests per level, round-robin over the clients.
  std::vector<size_t> PerClient(kClients, 0);
  std::vector<Slot> Slots;
  {
    int64_t Offset = 0;
    size_t I = 0;
    for (int L = FirstLevel; L != EndLevel; ++L) {
      double Secs = Probe ? Seconds : Seconds * kShares[L];
      size_t N = static_cast<size_t>(kLevels[L] * Secs);
      int64_t Gap = static_cast<int64_t>(1e9 / kLevels[L]);
      for (size_t K = 0; K != N; ++K, ++I) {
        Slot S;
        S.Due = Offset + static_cast<int64_t>(K) * Gap;
        S.Client = static_cast<int>(I % kClients);
        S.LineIdx = PerClient[S.Client]++;
        S.Level = L;
        Slots.push_back(S);
      }
      Offset += static_cast<int64_t>(N) * Gap;
      Out.Values["rate/L" + std::to_string(L)] = kLevels[L];
    }
    Out.Values["ref_level"] = kRefLevel;
  }
  std::vector<std::vector<Line>> Scripts;
  for (int C = 0; C != kClients; ++C)
    Scripts.push_back(makeScript(Mods, C, Out.Seed, PerClient[C], !Probe));
  for (Slot &S : Slots)
    S.Kind = Scripts[S.Client][S.LineIdx].Kind;

  if (!Probe) {
    // The corpus alone first, with a short limit: load, drive/1, and the
    // MetaAnalyzer oracle on drive/1.
    Module &CM = Mods.back();
    ChildOutcome C = runInChild(
        [&](int Fd) {
          AnalysisServer Srv(serverConfig(Corpus, 1));
          int Id = Srv.openClient();
          Srv.execute(Id, "load " + CM.Load);
          AnalysisServer::Response R = Srv.execute(Id, "entry drive/1");
          if (isErrorText(R.Err))
            return 3;
          SymbolTable Syms;
          TermArena Arena;
          Result<CompiledProgram> P =
              compileSource(Corpus.Library + Corpus.User, Syms, Arena);
          Result<ParsedProgram> Parsed =
              parseProgram(Corpus.Library + Corpus.User, Syms, Arena);
          if (!P || !Parsed)
            return 3;
          AnalysisSession A(*P);
          Result<AnalysisResult> RA = A.analyze("drive/1");
          AnalysisSession B = makeBaselineSession(*Parsed, Syms);
          Result<AnalysisResult> RB = B.analyze("drive/1");
          bool Same = RA && RB && summarize(*RA, Syms) == summarize(*RB, Syms);
          writeAll(Fd, Same ? "match\n" : "mismatch\n");
          return 0;
        },
        kCorpusCheckMs);
    ++Out.Attempted;
    if (C.K != ChildOutcome::Ok) {
      CM.Refused = true;
      Out.fail("module '" + CM.Load + "'", "refused: drive/1 " + C.describe());
    } else if (C.Output != "match\n") {
      ++Out.Mismatches;
      Out.fail("module '" + CM.Load + "'",
               "drive/1 answer differs from the MetaAnalyzer oracle");
    }
  }
  // Reference payloads: each client's script alone on a fresh server, in
  // forked children. A crash or hang refuses the module of the line that
  // was running, and the replays run again without it.
  std::vector<std::vector<uint64_t>> Ref(kClients);
  for (int Attempt = 0; Attempt != 3; ++Attempt) {
    std::vector<std::function<int(int)>> Bodies;
    for (int C = 0; C != kClients; ++C)
      Bodies.push_back([&, C](int Fd) {
        return replayChild(Fd, Corpus, Scripts[C], Mods);
      });
    std::vector<ChildOutcome> Res =
        runChildren(Bodies, std::vector<double>(kClients, kReplayLimitMs),
                    kClients);
    bool Again = false;
    for (int C = 0; C != kClients; ++C) {
      Ref[C].assign(Scripts[C].size(), 0);
      std::vector<bool> Seen(Scripts[C].size(), false);
      std::istringstream In(Res[C].Output);
      std::string Tok;
      size_t Idx;
      uint64_t H;
      while (In >> Tok >> Idx >> H)
        if (Idx < Ref[C].size()) {
          Ref[C][Idx] = H;
          Seen[Idx] = true;
        }
      if (Res[C].K == ChildOutcome::Ok)
        continue;
      for (size_t I = 0; I != Scripts[C].size(); ++I) {
        Module &M = Mods[Scripts[C][I].Mod];
        if (!Seen[I] && !M.Refused) {
          M.Refused = true;
          Out.Notes.push_back("module '" + M.Load + "' refused: the replay " +
                              Res[C].describe() + " on '" +
                              Scripts[C][I].Text + "'");
          Again = true;
          break;
        }
      }
    }
    if (!Again)
      break;
  }

  // Set-up time: fresh servers with every module loaded and its main
  // entry answered once.
  for (int I = 0; !Probe && I != kSetups; ++I) {
    int64_t S = nowNs();
    AnalysisServer Srv(serverConfig(Corpus, kWorkers));
    warmUp(Srv, Mods);
    Out.SetupS.push_back(static_cast<double>(nowNs() - S) / 1e9);
  }

  // The open loop runs in a forked child: a request that never answers
  // must cost its client's later requests, not the run.
  double LimitMs = Seconds * 1000 + (EndLevel - FirstLevel) * kDrainLimitMs +
                   kLoopSlackMs;
  ChildOutcome Loop = runInChild(
      [&](int Fd) {
        return openLoop(Fd, Slots, Scripts, Mods, Corpus, FirstLevel,
                        EndLevel);
      },
      LimitMs);
  if (Loop.K != ChildOutcome::Ok)
    Out.Notes.push_back("open loop " + Loop.describe() +
                        "; unanswered requests count as failed");
  {
    std::istringstream In(Loop.Output);
    std::string Line;
    while (std::getline(In, Line)) {
      std::istringstream L(Line.substr(std::min<size_t>(2, Line.size())));
      if (Line.rfind("Q ", 0) == 0) {
        size_t Idx = 0;
        int State = 0;
        int64_t Due = 0, Sent = 0, Done = 0;
        uint64_t Hash = 0;
        L >> Idx >> Due >> Sent >> Done >> Hash >> State;
        if (Idx >= Slots.size())
          continue;
        Slot &S = Slots[Idx];
        S.Due = Due;
        S.Sent = Sent;
        S.Done = Done;
        S.Hash = Hash;
        S.Error = State == 1;
        S.Refused = State == 2;
      } else if (Line.rfind("O ", 0) == 0) {
        int Lv = 0;
        double Outstanding = 0, DrainMs = 0;
        L >> Lv >> Outstanding >> DrainMs;
        Out.Values["outstanding/L" + std::to_string(Lv)] = Outstanding;
        Out.Values["drain_ms/L" + std::to_string(Lv)] = DrainMs;
      } else if (Line.rfind("T ", 0) == 0) {
        double Q = 0, H = 0, D = 0, C = 0, R = 0, Rss = 0;
        L >> Q >> H >> D >> C >> R >> Rss;
        Out.Values["server.queries"] = Q;
        Out.Values["server.cache_hits"] = H;
        Out.Values["server.drains"] = D;
        Out.Values["server.coalesced"] = C;
        Out.Values["server.requests"] = R;
        if (!Probe)
          Out.Values["peak_rss_kb"] =
              std::max(Rss, static_cast<double>(peakRssKb()));
      }
    }
  }
  bool Traced = T.enabled() || Out.Traced;
  if (Traced)
    T.enable();

  // Answers against the single-client replays, then the samples.
  for (size_t I = 0; I != Slots.size(); ++I) {
    const Slot &S = Slots[I];
    std::string L = "L" + std::to_string(S.Level);
    const std::string &Text = Scripts[S.Client][S.LineIdx].Text;
    // A probe inside another workload's traced run reports its failures
    // as notes: that workload's operations are its own inputs.
    auto Fail = [&](const std::string &Why) {
      std::string Op = "request " + std::to_string(I) + " '" + Text + "'";
      if (Probe)
        Out.Notes.push_back("serve probe " + Op + ": " + Why);
      else
        Out.fail(Op, Why);
    };
    if (!Probe)
      ++Out.Attempted;
    bool Bad = S.Refused || S.Error || S.Done == 0;
    if (S.Done == 0 && !S.Refused)
      Fail("no answer before the open loop's limit");
    else if (S.Refused)
      Fail("refused");
    else if (S.Error)
      Fail("error");
    else if (S.Hash != Ref[S.Client][S.LineIdx]) {
      ++Out.Inconsistent;
      Bad = true;
      Fail("payload differs from the single-client replay");
    }
    // A failed request misses every latency limit.
    double Lat = Bad ? -1 : static_cast<double>(S.Done - S.Due) / 1e6;
    Out.add("lat/" + L, Lat);
    if (S.Kind == 'w')
      Out.add("edit/" + L, Lat);
    if (!Probe && Scripts[S.Client][S.LineIdx].Mod + 1 ==
                      static_cast<int>(Mods.size()))
      Out.add("corpus/" + L, Lat);
    if (S.Sent)
      Out.add("lag/" + L, static_cast<double>(S.Sent - S.Due) / 1e6);
    if (Traced && S.Done) {
      int64_t RecStart = nowNs();
      int32_t Root = T.add("request", S.Due, S.Done, -1,
                           static_cast<int64_t>(I));
      T.add("generator.lag", S.Due, S.Sent, Root, static_cast<int64_t>(I));
      T.add(S.Kind == 'w' ? "server.edit" : "server.request", S.Sent, S.Done,
            Root, static_cast<int64_t>(I));
      Out.bump("trace_record_ms", msSince(RecStart));
    }
  }

  if (!Traced)
    return 0;
  if (Probe)
    storeProbe(Out, T, Mods);
  else
    storeProbe(Out, T, {Mods.back()});
  return 0;
}

int runServe(RawResult &Out, Tracer &T, double Seconds) {
  return runServeLoop(Out, T, Seconds, false);
}

} // namespace perfbench
