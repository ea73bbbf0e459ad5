//===- bench/ablation_parallel.cpp - Parallelism sweep --------------------===//
//
// Ablation for the paper's parallelization claim: clusters are analyzed
// independently, so packing them into k parts divides the wall-clock
// time by (up to) k. Reports the paper's greedy simulated packing for
// k = 1..8 and a real thread-pool run (LPT-dispatched) for comparison.
//
// Usage: ablation_parallel [scale] [--stats-json]
//
// --stats-json dumps the full BootstrapResult of the threaded run --
// per-cluster pointer counts, slice sizes, LPT cost keys, wall-clock,
// steps, summary tuples/keys, dovetail accounting, and the merged
// global Statistics registry -- as a JSON document on stdout.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/BootstrapDriver.h"
#include "support/Timer.h"

#include <cstdio>
#include <thread>

using namespace bsaa;
using namespace bsaa::bench;

int main(int Argc, char **Argv) {
  bool StatsJson = takeFlag(Argc, Argv, "--stats-json");
  double Scale = scaleFromArgs(Argc, Argv, 0.25);
  workload::SuiteEntry Entry = workload::suiteEntry("autofs", Scale);
  std::unique_ptr<ir::Program> P = compileEntry(Entry);

  core::BootstrapOptions Opts;
  Opts.EngineOpts.StepBudget = 50000;
  core::BootstrapDriver Driver(*P, Opts);
  core::BootstrapResult R = Driver.runAll();

  std::printf("Parallel-packing ablation on autofs (scale %.2f): "
              "%u clusters, serial FSCS %.3fs\n",
              Scale, R.NumClusters, R.TotalFscsSeconds);
  std::printf("  %6s %16s %9s\n", "parts", "simulated-max(s)", "speedup");
  for (uint32_t Parts = 1; Parts <= 8; ++Parts) {
    double T = core::BootstrapDriver::simulateParallel(R.Clusters, Parts);
    std::printf("  %6u %16.3f %8.2fx\n", Parts, T,
                T > 0 ? R.TotalFscsSeconds / T : 0.0);
  }

  // Real threads (on a single-core host this mostly demonstrates that
  // the per-cluster analyses are safely concurrent). Big clusters are
  // dispatched first (LPT) so the tail is short.
  unsigned HW = std::thread::hardware_concurrency();
  core::BootstrapOptions ThreadedOpts = Opts;
  ThreadedOpts.Threads = HW > 1 ? HW : 2;
  core::BootstrapDriver Threaded(*P, ThreadedOpts);
  Timer T;
  core::BootstrapResult R2 = Threaded.runAll();
  std::printf("\nreal thread pool (%u threads, %u hardware): wall %.3fs "
              "for %u clusters\n",
              ThreadedOpts.Threads, HW, T.seconds(), R2.NumClusters);

  if (StatsJson)
    std::puts(core::toStatsJson(R2).c_str());
  return 0;
}
