//===- perfbench/harness/Harness.cpp - End-to-end benchmark harness -------===//
//
// One workload per invocation:
//
//   perfbench_harness --workload table1|corpus-ladder|serve --seed N
//                     --seconds S --trace 0|1 --out RAW.json [--spans F]
//
// Generates the workload's inputs from the seed, checks the answers
// against the independent oracle during set-up (untimed), measures for S
// seconds, and writes the raw samples, counters and failure list to
// RAW.json. With --trace 1 the run is split: the first half untraced (the
// reference for the tracing overhead), the second half with spans around
// every call into a layer, written to F at exit. perfbench/run.py turns
// the raw file into the reported metrics.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload table1|corpus-ladder|"
               "serve --seed N --seconds S --trace 0|1 --out FILE "
               "[--spans FILE]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  RawResult Out;
  std::string OutPath, SpansPath;
  double Seconds = 10;
  int Trace = 0;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage();
    std::string V = argv[++I];
    char *End = nullptr;
    if (A == "--workload")
      Out.Workload = V;
    else if (A == "--seed")
      Out.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (A == "--seconds")
      Seconds = std::strtod(V.c_str(), &End);
    else if (A == "--trace")
      Trace = std::atoi(V.c_str());
    else if (A == "--out")
      OutPath = V;
    else if (A == "--spans")
      SpansPath = V;
    else
      return usage();
    if (End && *End)
      return usage();
  }
  if (OutPath.empty() || Seconds <= 0 || (Trace != 0 && Trace != 1))
    return usage();
  Out.Traced = Trace == 1;

  Tracer T;
  int Rc;
  if (Out.Workload == "table1")
    Rc = runTable1(Out, T, Seconds);
  else if (Out.Workload == "corpus-ladder")
    Rc = runCorpusLadder(Out, T, Seconds);
  else if (Out.Workload == "serve")
    Rc = runServe(Out, T, Seconds);
  else
    return usage();
  if (Rc != 0)
    return Rc;

  if (T.enabled() && !SpansPath.empty() && !T.write(SpansPath)) {
    std::fprintf(stderr, "cannot write %s\n", SpansPath.c_str());
    return 1;
  }
  FILE *F = std::fopen(OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::string J = Out.json();
  std::fwrite(J.data(), 1, J.size(), F);
  return std::fclose(F) == 0 ? 0 : 1;
}
