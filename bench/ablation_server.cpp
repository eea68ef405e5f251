//===- bench/ablation_server.cpp - Concurrent analysis service ablation ---===//
//
// Drives the multi-tenant AnalysisServer (analyzer/Server.h) with N
// concurrent clients over M modules and gates the service's one hard
// contract: per-client response streams are byte-identical to a
// single-client replay of that client's script alone on a fresh server —
// at every worker count, and across LRU eviction.
//
// Three configurations run the same interleaved workload:
//
//   workers=1            the serialized reference shape
//   workers=4            real concurrency (slot locks, coalescing)
//   workers=4, cap=1     every store over the byte cap — constant
//                        eviction/re-warm churn under the same gate
//
// Each client's script walks its own rotation of the module list:
// load, entry, repeat entry (response-cache hit), most-general entry,
// edit (invalidate + re-answer), entry again. Two client pairs share a
// rotation so identical queries land in flight together and exercise
// the cache-hit/coalescing paths. Gates compare payload (Out) bytes
// only: the message channel says "loaded" vs "reusing warm store"
// depending on which client created a shared slot first, which is
// interleaving-dependent by design.
//
// Reported per configuration: per-request latency p50/p99 (submission
// to callback), warm-hit rate (response-cache hits / queries) and
// coalesce rate. The eviction run additionally gates >= 1 eviction and
// >= 1 re-warm — a cap of one byte that evicts nothing would make the
// identity gate vacuous.
//
// Output: a table on stdout and BENCH_server.json in the current
// directory; argv[1] scales the per-client script rounds (default 2).
// Exits nonzero on any gate failure.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Server.h"
#include "bench/BenchUtil.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

using namespace awam;
using namespace awam::bench;

namespace {

constexpr int kClients = 4;
constexpr size_t kModules = 6;

AnalysisServer::Config serverConfig(int Workers, uint64_t Cap) {
  AnalysisServer::Config C;
  C.Workers = Workers;
  C.MaxStoreBytes = Cap;
  C.LoadSource = [](const std::string &Spec, std::string &Source,
                    std::string &Err) {
    if (Spec.rfind("bench:", 0) == 0) {
      const BenchmarkProgram *B = findBenchmark(Spec.substr(6));
      if (!B) {
        Err = "unknown benchmark '" + Spec.substr(6) + "'\n";
        return false;
      }
      Source = B->Source;
      return true;
    }
    Err = "cannot open " + Spec + "\n";
    return false;
  };
  return C;
}

struct ModuleScriptInfo {
  const BenchmarkProgram *B = nullptr;
  /// name/arity of a defined non-entry predicate: the edit target and the
  /// extra most-general query that forces a warm drain. Derived by
  /// compiling the module once up front (every benchmark's entry spec is
  /// plain `main`, which carries no signature to edit).
  std::string WorkSig;
};

ModuleScriptInfo moduleInfo(const BenchmarkProgram &B) {
  ModuleScriptInfo M;
  M.B = &B;
  PreparedBenchmark P = prepare(B);
  for (int32_t I = 0; I != P.Compiled->Module->numPredicates(); ++I) {
    const PredicateInfo &PI = P.Compiled->Module->predicate(I);
    if (PI.Clauses.empty())
      continue;
    std::string Name(P.Syms->name(PI.Name));
    if (Name == B.EntrySpec)
      continue;
    M.WorkSig = Name + "/" + std::to_string(PI.Arity);
    break;
  }
  return M;
}

/// The deterministic per-client script: \p Rounds passes over the module
/// list starting at rotation \p Offset.
std::vector<std::string>
clientScript(const std::vector<ModuleScriptInfo> &Mods, int Offset,
             int Rounds) {
  std::vector<std::string> Script;
  for (int R = 0; R != Rounds; ++R) {
    for (size_t I = 0; I != Mods.size(); ++I) {
      const ModuleScriptInfo &M =
          Mods[(I + static_cast<size_t>(Offset)) % Mods.size()];
      std::string Entry(M.B->EntrySpec);
      Script.push_back("load bench:" + std::string(M.B->Name));
      Script.push_back("entry " + Entry);
      Script.push_back("entry " + Entry); // repeat: response-cache hit
      if (!M.WorkSig.empty()) {
        Script.push_back("entry " + M.WorkSig); // most-general warm drain
        Script.push_back("edit " + M.WorkSig);
      }
      Script.push_back("entry " + Entry);
    }
  }
  return Script;
}

struct RunOut {
  int Workers = 0;
  uint64_t Cap = 0;
  size_t Requests = 0;
  AnalysisServer::Stats Stats;
  double P50Ms = 0, P99Ms = 0;
  double WarmHitRate = 0, CoalesceRate = 0;
  bool Identical = false;
};

/// Runs the interleaved workload on one server configuration, gating
/// every client's payload stream against \p Want.
RunOut runConfig(int Workers, uint64_t Cap,
                 const std::vector<std::vector<std::string>> &Scripts,
                 const std::vector<std::vector<std::string>> &Want) {
  RunOut R;
  R.Workers = Workers;
  R.Cap = Cap;

  AnalysisServer S(serverConfig(Workers, Cap));
  std::vector<int> Clients(Scripts.size());
  for (size_t I = 0; I != Scripts.size(); ++I)
    Clients[I] = S.openClient();

  std::mutex M;
  std::condition_variable CV;
  size_t Done = 0, Total = 0;
  std::vector<std::vector<std::string>> Got(Scripts.size());
  std::vector<double> LatMs;

  using Clock = std::chrono::steady_clock;
  // Round-robin submission: step k of every client enters the queues
  // before step k+1 of any — the maximally interleaved schedule.
  for (size_t Step = 0;; ++Step) {
    bool Any = false;
    for (size_t I = 0; I != Scripts.size(); ++I) {
      if (Step >= Scripts[I].size())
        continue;
      Any = true;
      ++Total;
      Clock::time_point T0 = Clock::now();
      S.submit(Clients[I], Scripts[I][Step],
               [&, I, T0](const AnalysisServer::Response &Resp) {
                 double Ms = std::chrono::duration<double, std::milli>(
                                 Clock::now() - T0)
                                 .count();
                 std::lock_guard<std::mutex> L(M);
                 Got[I].push_back(Resp.Out);
                 LatMs.push_back(Ms);
                 ++Done;
                 CV.notify_all();
               });
    }
    if (!Any)
      break;
  }
  {
    std::unique_lock<std::mutex> L(M);
    CV.wait(L, [&] { return Done == Total; });
  }
  R.Requests = Total;
  R.Stats = S.stats();

  std::sort(LatMs.begin(), LatMs.end());
  if (!LatMs.empty()) {
    R.P50Ms = LatMs[LatMs.size() / 2];
    R.P99Ms = LatMs[std::min(LatMs.size() - 1,
                             static_cast<size_t>(LatMs.size() * 0.99))];
  }
  if (R.Stats.Queries) {
    R.WarmHitRate = double(R.Stats.CacheHits) / double(R.Stats.Queries);
    R.CoalesceRate = double(R.Stats.Coalesced) / double(R.Stats.Queries);
  }

  R.Identical = true;
  for (size_t I = 0; I != Scripts.size(); ++I) {
    if (Got[I].size() != Want[I].size()) {
      R.Identical = false;
      break;
    }
    for (size_t J = 0; J != Got[I].size(); ++J)
      if (Got[I][J] != Want[I][J]) {
        std::fprintf(stderr,
                     "DIVERGENCE (workers=%d cap=%llu): client %zu line "
                     "%zu ('%s') differs from single-client replay\n",
                     Workers, static_cast<unsigned long long>(Cap), I, J,
                     Scripts[I][J].c_str());
        R.Identical = false;
      }
  }
  return R;
}

} // namespace

int main(int argc, char **argv) {
  int Rounds = argc > 1 ? std::max(1, std::atoi(argv[1])) : 2;

  std::vector<ModuleScriptInfo> Mods;
  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    Mods.push_back(moduleInfo(B));
    if (Mods.size() == kModules)
      break;
  }

  std::printf("Ablation A8: concurrent multi-tenant analysis service "
              "(%d clients x %zu modules, %d round%s)\n\n",
              kClients, Mods.size(), Rounds, Rounds == 1 ? "" : "s");

  // Client pairs (0,1) and (2,3) share a rotation, so identical queries
  // land in flight together.
  std::vector<std::vector<std::string>> Scripts;
  for (int I = 0; I != kClients; ++I)
    Scripts.push_back(clientScript(Mods, I / 2, Rounds));

  // The reference: each client's script alone on a fresh single-worker
  // server. This is the transcript the concurrent runs must reproduce.
  std::vector<std::vector<std::string>> Want;
  for (const std::vector<std::string> &Script : Scripts) {
    AnalysisServer Ref(serverConfig(1, 0));
    int C = Ref.openClient();
    std::vector<std::string> Outs;
    for (const std::string &Line : Script)
      Outs.push_back(Ref.execute(C, Line).Out);
    Want.push_back(std::move(Outs));
  }

  std::vector<RunOut> Runs;
  Runs.push_back(runConfig(1, 0, Scripts, Want));
  Runs.push_back(runConfig(4, 0, Scripts, Want));
  Runs.push_back(runConfig(4, 1, Scripts, Want)); // eviction churn

  TextTable T({"workers", "cap(B)", "requests", "drains", "warm-hit",
               "coalesced", "evictions", "rewarms", "p50(ms)", "p99(ms)",
               "identical"});
  bool GateFailed = false;
  for (const RunOut &R : Runs) {
    T.addRow({std::to_string(R.Workers), std::to_string(R.Cap),
              std::to_string(R.Requests),
              std::to_string(R.Stats.Drains),
              formatDouble(R.WarmHitRate, 3),
              formatDouble(R.CoalesceRate, 3),
              std::to_string(R.Stats.Evictions),
              std::to_string(R.Stats.Rewarms), formatDouble(R.P50Ms, 3),
              formatDouble(R.P99Ms, 3), R.Identical ? "yes" : "NO"});
    if (!R.Identical)
      GateFailed = true;
  }
  std::fputs(T.str().c_str(), stdout);

  const RunOut &Evict = Runs.back();
  if (Evict.Stats.Evictions == 0 || Evict.Stats.Rewarms == 0) {
    std::fprintf(stderr, "eviction gate: cap=1 run evicted %llu / "
                         "re-warmed %llu stores (expected >= 1 each)\n",
                 static_cast<unsigned long long>(Evict.Stats.Evictions),
                 static_cast<unsigned long long>(Evict.Stats.Rewarms));
    GateFailed = true;
  }
  std::printf("\nper-client streams byte-identical to single-client replay "
              "in %zu/%zu configurations; eviction run: %llu evictions, "
              "%llu rewarms.\n",
              Runs.size() - std::count_if(Runs.begin(), Runs.end(),
                                          [](const RunOut &R) {
                                            return !R.Identical;
                                          }),
              Runs.size(),
              static_cast<unsigned long long>(Evict.Stats.Evictions),
              static_cast<unsigned long long>(Evict.Stats.Rewarms));

  FILE *J = std::fopen("BENCH_server.json", "w");
  if (!J) {
    std::fprintf(stderr, "cannot write BENCH_server.json\n");
    return 1;
  }
  std::fprintf(J, "{\n  \"bench\": \"ablation_server\",\n");
  std::fprintf(J, "  \"clients\": %d,\n  \"modules\": %zu,\n", kClients,
               Mods.size());
  std::fprintf(J, "  \"rounds\": %d,\n  \"configs\": [\n", Rounds);
  for (size_t I = 0; I != Runs.size(); ++I) {
    const RunOut &R = Runs[I];
    std::fprintf(
        J,
        "    {\"workers\": %d, \"max_store_bytes\": %llu, "
        "\"requests\": %zu, \"queries\": %llu, \"drains\": %llu, "
        "\"cache_hits\": %llu, \"coalesced\": %llu, "
        "\"warm_hit_rate\": %.4f, \"coalesce_rate\": %.4f, "
        "\"evictions\": %llu, \"evicted_bytes\": %llu, \"rewarms\": %llu, "
        "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"identical\": %s}%s\n",
        R.Workers, static_cast<unsigned long long>(R.Cap), R.Requests,
        static_cast<unsigned long long>(R.Stats.Queries),
        static_cast<unsigned long long>(R.Stats.Drains),
        static_cast<unsigned long long>(R.Stats.CacheHits),
        static_cast<unsigned long long>(R.Stats.Coalesced), R.WarmHitRate,
        R.CoalesceRate, static_cast<unsigned long long>(R.Stats.Evictions),
        static_cast<unsigned long long>(R.Stats.EvictedBytes),
        static_cast<unsigned long long>(R.Stats.Rewarms), R.P50Ms, R.P99Ms,
        R.Identical ? "true" : "false", I + 1 == Runs.size() ? "" : ",");
  }
  std::fprintf(J, "  ],\n  \"gates_passed\": %s\n}\n",
               GateFailed ? "false" : "true");
  std::fclose(J);
  std::printf("wrote BENCH_server.json\n");

  return GateFailed ? 1 : 0;
}
