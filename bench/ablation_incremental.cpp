//===- bench/ablation_incremental.cpp - Incremental re-analysis -----------===//
//
// Ablation for the incremental re-analysis subsystem: drive one
// synthetic program through a deterministic edit stream
// (workload::generateEditStream) and, after every edit, analyze the new
// version twice --
//
//   full         a cold BootstrapDriver with fresh caches, and
//   incremental  core::IncrementalDriver, which adopts the previous
//                Steensgaard solution when the partition-relevant
//                fingerprint is unchanged and replays untouched
//                clusters from the scoped summary cache
//                (core/ClusterDependencies.h).
//
// Both runs are cross-checked per edit: their timing- and
// cache-counter-stripped stats JSON must be byte-identical (the same
// oracle tests/test_incremental.cpp enforces), so the speedup column is
// never bought with a wrong answer.
//
// Usage: ablation_incremental [scale] [--edits N] [--stats-json]
//
// --stats-json dumps the final incremental BootstrapResult (including
// cumulative cache counters) as a JSON document on stdout.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/IncrementalDriver.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include <cstdio>
#include <memory>
#include <string>

using namespace bsaa;
using namespace bsaa::bench;

namespace {

/// Edit-friendly workload: no recursion and no cross-community copies
/// keep dependency cones small, so a single-function edit invalidates
/// few clusters; a healthy share of non-pointer functions makes many
/// mutate edits partition-neutral (Steensgaard adoption fires).
workload::GeneratorConfig editableConfig(double Scale) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = 42;
  Cfg.NumFunctions = static_cast<uint32_t>(120 * Scale);
  if (Cfg.NumFunctions < 8)
    Cfg.NumFunctions = 8;
  Cfg.StmtsPerFunction = 18;
  Cfg.Communities = static_cast<uint32_t>(24 * Scale);
  if (Cfg.Communities < 4)
    Cfg.Communities = 4;
  Cfg.PointerFunctionPercent = 60;
  Cfg.WeightNoise = 20;
  Cfg.WeightCall = 4;
  Cfg.RecursionPercent = 0;
  Cfg.CrossCommunityBasisPoints = 0;
  return Cfg;
}

std::unique_ptr<ir::Program> compileVersion(const workload::GeneratorConfig &Cfg,
                                            const workload::EditState &St) {
  std::string Src = workload::generateProgram(Cfg, St);
  frontend::Diagnostics Diags;
  std::unique_ptr<ir::Program> P = frontend::compileString(Src, Diags);
  if (!P) {
    std::fprintf(stderr, "error: edited program failed to compile:\n%s\n",
                 Diags.toString().c_str());
    std::abort();
  }
  return P;
}

const char *kindName(workload::EditKind K) {
  switch (K) {
  case workload::EditKind::Mutate:
    return "mutate";
  case workload::EditKind::Stub:
    return "stub";
  case workload::EditKind::Append:
    return "append";
  }
  return "?";
}

} // namespace

int main(int Argc, char **Argv) {
  bool StatsJson = takeFlag(Argc, Argv, "--stats-json");
  uint32_t NumEdits = 20;
  if (const char *V = takeFlag(Argc, Argv, "--edits", true))
    NumEdits = static_cast<uint32_t>(std::atoi(V));
  double Scale = scaleFromArgs(Argc, Argv, 0.2);

  workload::GeneratorConfig Cfg = editableConfig(Scale);
  std::vector<workload::ProgramEdit> Edits =
      workload::generateEditStream(Cfg, NumEdits, /*StreamSeed=*/7);
  workload::EditState St = workload::initialEditState(Cfg);

  core::BootstrapOptions Base;
  Base.AndersenThreshold = 60;
  Base.EngineOpts.StepBudget = 50000;
  core::IncrementalDriver Incr(Base);

  std::printf("incremental re-analysis (scale %.2f, %u functions, %u edits)\n",
              Scale, Cfg.NumFunctions, NumEdits);
  std::printf("  %-4s %-7s %5s  %9s %9s %8s  %9s %7s %6s %6s %5s\n", "edit",
              "kind", "func", "full(s)", "incr(s)", "speedup", "#clusters",
              "re-ran", "cached", "pred", "match");

  const core::StatsJsonOptions Strip{/*IncludeTimings=*/false,
                                     /*IncludeCacheStats=*/false};
  double FullTotal = 0, IncrTotal = 0;
  uint32_t Mismatches = 0, Adoptions = 0;
  core::BootstrapResult LastIncr;

  // Step 0 is the initial (cold) version; step 1 is a "touch" -- the
  // identical program resubmitted, the no-op-edit fast path where
  // Steensgaard must be adopted and every cluster must replay; steps
  // 2.. are the real edits.
  for (uint32_t I = 0; I <= NumEdits + 1; ++I) {
    const char *Kind = I == 0 ? "init" : "touch";
    uint32_t Func = 0;
    if (I > 1) {
      const workload::ProgramEdit &E = Edits[I - 2];
      workload::applyEdit(St, E);
      Kind = kindName(E.Kind);
      Func = E.Function;
    }

    // Incremental run (update() clears the Statistics registry itself).
    core::UpdateReport Rep;
    const core::BootstrapResult &IR = Incr.update(compileVersion(Cfg, St), &Rep);
    std::string IncrJson = core::toStatsJson(IR, Strip);
    LastIncr = IR;
    if (Rep.SteensgaardAdopted)
      ++Adoptions;

    // Cold full run over the same version, fresh caches.
    Statistics::global().clear();
    std::unique_ptr<ir::Program> P = compileVersion(Cfg, St);
    core::BootstrapDriver Full(*P, Base);
    Timer FT;
    core::BootstrapResult FR = Full.runAll();
    double FullSecs = FT.seconds();
    bool Match = core::toStatsJson(FR, Strip) == IncrJson;
    if (!Match)
      ++Mismatches;

    FullTotal += FullSecs;
    IncrTotal += Rep.Seconds;
    char FuncCol[16];
    if (I <= 1)
      std::snprintf(FuncCol, sizeof(FuncCol), "-");
    else
      std::snprintf(FuncCol, sizeof(FuncCol), "%u", Func);
    std::printf("  %-4u %-7s %5s  %9.3f %9.3f %7.1fx  %9u %7u %6u %6u %5s%s\n",
                I, Kind, FuncCol, FullSecs, Rep.Seconds,
                Rep.Seconds > 0 ? FullSecs / Rep.Seconds : 0.0,
                Rep.NumClusters, Rep.ClustersReanalyzed, Rep.ClustersFromCache,
                unsigned(Rep.PredictedInvalidated.size()),
                Match ? "ok" : "FAIL",
                Rep.SteensgaardAdopted ? " (steens adopted)" : "");
    std::fflush(stdout);
  }

  std::printf("\n  total full %.3fs, total incremental %.3fs (%.1fx), "
              "steensgaard adopted %u/%u, mismatches %u\n",
              FullTotal, IncrTotal,
              IncrTotal > 0 ? FullTotal / IncrTotal : 0.0, Adoptions,
              NumEdits + 2, Mismatches);

  if (StatsJson)
    std::puts(core::toStatsJson(LastIncr).c_str());
  return Mismatches ? 1 : 0;
}
