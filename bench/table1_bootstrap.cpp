//===- bench/table1_bootstrap.cpp - Table 1 reproduction ------------------===//
//
// Regenerates the paper's Table 1: flow- and context-sensitive alias
// analysis without clustering, with Steensgaard partitioning, and with
// bootstrapped Andersen clustering, over the 20-program suite.
//
// Columns mirror the paper:
//   Example, KLOC, #pointers,
//   Partitioning (Steensgaard solve time),
//   Clustering (bootstrapped Andersen clustering time),
//   Time(secs) FSCS without clustering (step budget plays the paper's
//     15-minute timeout),
//   Steensgaard: #cluster, Max, Time (5-part simulated parallel),
//   Andersen:    #cluster, Max, Time (5-part simulated parallel).
//
// Absolute numbers depend on the host and the synthetic workloads; the
// paper-shape claims to check are (a) clustering makes FSCS viable
// where the unclustered run times out, (b) Andersen clustering shrinks
// the max cluster where partitions overlap little (sendmail) and not
// where they overlap heavily (mt-daapd).
//
// Usage: table1_bootstrap [scale] [--stats-json] [--no-summary-cache]
//
// All three drivers per entry (unclustered baseline excepted by
// construction: its engine budget differs, so its key never collides)
// share one cross-cluster summary cache and one Algorithm-1 slice
// cache; --no-summary-cache detaches both for the ablation control and
// --stats-json dumps the final Andersen run's BootstrapResult with the
// cumulative cache counters.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/BootstrapDriver.h"
#include "support/Timer.h"

#include <cinttypes>
#include <cstdio>

using namespace bsaa;
using namespace bsaa::bench;

int main(int Argc, char **Argv) {
  bool StatsJson = takeFlag(Argc, Argv, "--stats-json");
  bool UseCache = !takeFlag(Argc, Argv, "--no-summary-cache");
  double Scale = scaleFromArgs(Argc, Argv, 0.25);

  auto SummaryCache =
      UseCache ? std::make_shared<fscs::SummaryCache>() : nullptr;
  auto SliceCache =
      UseCache ? std::make_shared<core::SliceCache>() : nullptr;
  core::BootstrapResult LastRun;
  uint64_t ClusterBudget = 30000;
  uint64_t UnclusteredBudget = 1000000;

  std::printf("Table 1: FSCS alias analysis without clustering vs. "
              "Steensgaard and Andersen clustering (suite scale %.2f)\n",
              Scale);
  std::printf("%-16s %6s %9s | %12s %10s | %10s | %28s | %28s\n", "Example",
              "KLOC", "#pointers", "Partitioning", "Clustering",
              "no-cluster", "Steensgaard (#clu  Max  Time)",
              "Andersen    (#clu  Max  Time)");

  for (const workload::SuiteEntry &Entry : workload::table1Suite(Scale)) {
    std::unique_ptr<ir::Program> P = compileEntry(Entry);

    // Column 6: FSCS on the whole program (budgeted).
    core::BootstrapOptions UnclusteredOpts;
    UnclusteredOpts.EngineOpts.StepBudget = UnclusteredBudget;
    core::BootstrapDriver Unclustered(*P, UnclusteredOpts);
    core::ClusterRunResult NoClu = Unclustered.runUnclustered();

    // Columns 8-9: Steensgaard partitions only.
    core::BootstrapOptions SteensOpts;
    SteensOpts.AndersenThreshold = UINT32_MAX;
    SteensOpts.EngineOpts.StepBudget = ClusterBudget;
    SteensOpts.SummaryCache = SummaryCache;
    SteensOpts.RelevantSliceCache = SliceCache;
    core::BootstrapDriver SteensDriver(*P, SteensOpts);
    core::BootstrapResult SteensRun = SteensDriver.runAll();

    // Columns 11-12: bootstrapped Andersen clustering (threshold 60).
    // Sub-threshold Steensgaard partitions survive refinement unchanged
    // and replay from the summary cache warmed by the previous run.
    core::BootstrapOptions AndOpts;
    AndOpts.AndersenThreshold = 60;
    AndOpts.EngineOpts.StepBudget = ClusterBudget;
    AndOpts.SummaryCache = SummaryCache;
    AndOpts.RelevantSliceCache = SliceCache;
    core::BootstrapDriver AndDriver(*P, AndOpts);
    core::BootstrapResult AndRun = AndDriver.runAll();

    std::printf("%-16s %6.1f %9u | %12.3f %10.3f | %10s | %7u %5u %9s | "
                "%7u %5u %9s\n",
                Entry.Name.c_str(), Entry.PaperKloc, P->numPointers(),
                SteensRun.SteensgaardSeconds,
                AndRun.AndersenClusteringSeconds,
                formatSeconds(NoClu.Seconds, NoClu.BudgetHit).c_str(),
                SteensRun.NumClusters, SteensRun.MaxClusterSize,
                formatSeconds(SteensRun.SimulatedParallelSeconds,
                              SteensRun.AnyBudgetHit)
                    .c_str(),
                AndRun.NumClusters, AndRun.MaxClusterSize,
                formatSeconds(AndRun.SimulatedParallelSeconds,
                              AndRun.AnyBudgetHit)
                    .c_str());
    std::fflush(stdout);
    LastRun = std::move(AndRun);
  }

  std::printf("\n(step budgets: %" PRIu64 " per cluster, %" PRIu64
              " unclustered; '>' marks a budget-limited run, the "
              "paper's '>15min')\n",
              ClusterBudget, UnclusteredBudget);
  if (UseCache) {
    support::CacheCounters C = SummaryCache->counters();
    std::printf("(summary cache: %" PRIu64 " hits / %" PRIu64
                " misses, hit rate %.2f; --no-summary-cache disables)\n",
                C.Hits, C.Misses, C.hitRate());
  }

  if (StatsJson)
    std::puts(core::toStatsJson(LastRun).c_str());
  return 0;
}
