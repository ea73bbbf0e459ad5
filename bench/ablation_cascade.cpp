//===- bench/ablation_cascade.cpp - Cascade depth ablation ----------------===//
//
// Ablation for the cascade itself (Section 4 notes One-Level Flow "can
// be cascaded between Steensgaard and Andersen"): compare
//   (a) Steensgaard partitions only,
//   (b) Steensgaard -> Andersen (the paper's default),
//   (c) Steensgaard -> One-Level Flow -> Andersen.
//
// The three configurations share one cross-cluster summary cache (and
// one Algorithm-1 slice cache): any partition that lands below the
// Andersen threshold is identical across configurations, so later
// configurations replay its FSCS run from the cache instead of
// recomputing it. The per-config "cache h/m" column shows the
// cumulative hit/miss counters after that configuration.
//
// Usage: ablation_cascade [scale] [--stats-json] [--no-summary-cache]
//
// --stats-json dumps the BootstrapResult of the final configuration --
// including the cumulative summary/slice cache counters -- as a JSON
// document on stdout. --no-summary-cache is the ablation control: it
// detaches both caches so every cluster is recomputed from scratch.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/BootstrapDriver.h"

#include <cinttypes>
#include <cstdio>

using namespace bsaa;
using namespace bsaa::bench;

int main(int Argc, char **Argv) {
  bool StatsJson = takeFlag(Argc, Argv, "--stats-json");
  bool UseCache = !takeFlag(Argc, Argv, "--no-summary-cache");
  double Scale = scaleFromArgs(Argc, Argv, 0.2);

  // One process-wide cache pair: entries are keyed by a program
  // fingerprint, so sharing across programs is safe.
  auto SummaryCache =
      UseCache ? std::make_shared<fscs::SummaryCache>() : nullptr;
  auto SliceCache =
      UseCache ? std::make_shared<core::SliceCache>() : nullptr;

  core::BootstrapResult LastRun;
  for (const char *Name : {"autofs", "clamd"}) {
    workload::SuiteEntry Entry = workload::suiteEntry(Name, Scale);
    std::unique_ptr<ir::Program> P = compileEntry(Entry);
    std::printf("\n%s (scale %.2f, %u pointers)\n", Name, Scale,
                P->numPointers());
    std::printf("  %-28s %9s %6s %12s %12s %13s\n", "cascade", "#clusters",
                "max", "refine-time", "fscs-sim-par", "cache h/m");

    struct Config {
      const char *Label;
      uint32_t Threshold;
      bool OneFlow;
    };
    const Config Configs[] = {
        {"steensgaard only", UINT32_MAX, false},
        {"steensgaard->andersen", 60, false},
        {"steens->oneflow->andersen", 60, true},
    };
    for (const Config &C : Configs) {
      core::BootstrapOptions Opts;
      Opts.AndersenThreshold = C.Threshold;
      Opts.UseOneFlow = C.OneFlow;
      Opts.EngineOpts.StepBudget = 50000;
      Opts.SummaryCache = SummaryCache;
      Opts.RelevantSliceCache = SliceCache;
      core::BootstrapDriver Driver(*P, Opts);
      core::BootstrapResult R = Driver.runAll();
      char CacheCol[32];
      if (UseCache)
        std::snprintf(CacheCol, sizeof(CacheCol), "%" PRIu64 "/%" PRIu64,
                      R.SummaryCacheReport.Counters.Hits,
                      R.SummaryCacheReport.Counters.Misses);
      else
        std::snprintf(CacheCol, sizeof(CacheCol), "off");
      std::printf("  %-28s %9u %6u %12.3f %12s %13s\n", C.Label,
                  R.NumClusters, R.MaxClusterSize,
                  R.AndersenClusteringSeconds + R.OneFlowSeconds,
                  formatSeconds(R.SimulatedParallelSeconds, R.AnyBudgetHit)
                      .c_str(),
                  CacheCol);
      std::fflush(stdout);
      LastRun = std::move(R);
    }
  }

  if (StatsJson)
    std::puts(core::toStatsJson(LastRun).c_str());
  return 0;
}
