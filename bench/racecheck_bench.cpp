//===- bench/racecheck_bench.cpp - Incremental race-check ablation --------===//
//
// Ablation for the incremental race checker: drive one lock-heavy
// synthetic program through a deterministic edit stream and, after
// every edit, produce the race verdicts twice --
//
//   cold         a fresh racecheck::RaceCheckService (full cascade,
//                full lockset re-derivation, empty facts cache), and
//   incremental  one long-lived RaceCheckService that adopts, replays
//                and re-checks only what the edit invalidated.
//
// Both sides are cross-checked per edit: toReportJson() -- which
// contains no timings or cache counters -- must be byte-identical, so
// the speedup column is never bought with a wrong verdict.
//
// Usage: racecheck_bench [scale] [--edits N] [--stats-json]
//
// --stats-json appends one machine-readable JSON line (the CI smoke
// gate parses the last stdout line): verdicts_identical, the touch-edit
// speedup (step 1: identical program resubmitted), the aggregate
// speedup over the whole stream, and the final warning count.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "racecheck/RaceCheckEngine.h"
#include "support/Json.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include <cstdio>
#include <memory>
#include <string>

using namespace bsaa;
using namespace bsaa::bench;

namespace {

/// The ablation_incremental editable workload plus enough locking to
/// carry real races: every non-stubbed function gets 1..2 critical
/// sections over 8 shared variables guarded by 6 lock pointers.
workload::GeneratorConfig raceConfig(double Scale) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = 42;
  Cfg.NumFunctions = static_cast<uint32_t>(120 * Scale);
  if (Cfg.NumFunctions < 8)
    Cfg.NumFunctions = 8;
  Cfg.StmtsPerFunction = 14;
  Cfg.Communities = static_cast<uint32_t>(24 * Scale);
  if (Cfg.Communities < 4)
    Cfg.Communities = 4;
  Cfg.PointerFunctionPercent = 60;
  Cfg.WeightNoise = 20;
  Cfg.WeightCall = 4;
  Cfg.RecursionPercent = 0;
  Cfg.CrossCommunityBasisPoints = 0;
  Cfg.LockPointers = 6;
  Cfg.SharedVariables = 8;
  Cfg.LockDensity = 2;
  return Cfg;
}

std::unique_ptr<ir::Program>
compileVersion(const workload::GeneratorConfig &Cfg,
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

core::BootstrapOptions baseOptions() {
  core::BootstrapOptions Opts;
  Opts.AndersenThreshold = 60;
  Opts.EngineOpts.StepBudget = 50000;
  return Opts;
}

} // namespace

int main(int Argc, char **Argv) {
  bool StatsJson = takeFlag(Argc, Argv, "--stats-json");
  uint32_t NumEdits = 20;
  if (const char *V = takeFlag(Argc, Argv, "--edits", true))
    NumEdits = static_cast<uint32_t>(std::atoi(V));
  double Scale = scaleFromArgs(Argc, Argv, 0.15);

  workload::GeneratorConfig Cfg = raceConfig(Scale);
  std::vector<workload::ProgramEdit> Edits =
      workload::generateEditStream(Cfg, NumEdits, /*StreamSeed=*/7);
  workload::EditState St = workload::initialEditState(Cfg);

  racecheck::RaceCheckService Incr(baseOptions());

  std::printf("incremental race checking (scale %.2f, %u functions, %u "
              "edits)\n",
              Scale, Cfg.NumFunctions, NumEdits);
  std::printf("  %-4s %-7s %5s  %9s %9s %8s  %5s %6s %6s  %5s %5s\n", "edit",
              "kind", "func", "cold(s)", "incr(s)", "speedup", "fns",
              "re-chk", "cached", "warns", "match");

  double ColdTotal = 0, IncrTotal = 0, TouchSpeedup = 0;
  uint32_t Mismatches = 0, FinalWarnings = 0;

  // Step 0 is the initial (cold) version; step 1 is a "touch" -- the
  // identical program resubmitted, where every cluster and every
  // function's lockset facts must replay; steps 2.. are the real edits.
  for (uint32_t I = 0; I <= NumEdits + 1; ++I) {
    const char *Kind = I == 0 ? "init" : "touch";
    uint32_t Func = 0;
    if (I > 1) {
      const workload::ProgramEdit &E = Edits[I - 2];
      workload::applyEdit(St, E);
      Kind = kindName(E.Kind);
      Func = E.Function;
    }

    // The touch step is the headline ratio CI gates on, and both sides
    // run in tens of milliseconds at small scales -- best-of-3 keeps
    // scheduler noise out of the gate. Re-submitting the identical
    // program is a touch every time, so repetition is free.
    uint32_t Reps = I == 1 ? 3 : 1;

    double IncrSecs = 0;
    racecheck::CheckReport Rep;
    for (uint32_t R = 0; R < Reps; ++R) {
      std::unique_ptr<ir::Program> P = compileVersion(Cfg, St);
      Timer IT;
      Rep = Incr.update(std::move(P));
      double S = IT.seconds();
      if (R == 0 || S < IncrSecs)
        IncrSecs = S;
    }
    std::string IncrJson = racecheck::toReportJson(*Incr.report());

    // Cold reference: fresh service, fresh caches, same version.
    double ColdSecs = 0;
    bool Match = true;
    for (uint32_t R = 0; R < Reps; ++R) {
      Statistics::global().clear();
      std::unique_ptr<ir::Program> P = compileVersion(Cfg, St);
      Timer CT;
      racecheck::RaceCheckService Cold(baseOptions());
      Cold.update(std::move(P));
      double S = CT.seconds();
      if (R == 0 || S < ColdSecs)
        ColdSecs = S;
      Match = Match && racecheck::toReportJson(*Cold.report()) == IncrJson;
    }
    if (!Match)
      ++Mismatches;

    // The compile is identical on both sides and excluded from both
    // timers; the comparison is cascade+check against cascade+check.
    ColdTotal += ColdSecs;
    IncrTotal += IncrSecs;
    if (I == 1)
      TouchSpeedup = IncrSecs > 0 ? ColdSecs / IncrSecs : 0;
    FinalWarnings = Rep.Warnings;

    char FuncCol[16];
    if (I <= 1)
      std::snprintf(FuncCol, sizeof(FuncCol), "-");
    else
      std::snprintf(FuncCol, sizeof(FuncCol), "%u", Func);
    std::printf("  %-4u %-7s %5s  %9.3f %9.3f %7.1fx  %5u %6u %6u  %5u %5s\n",
                I, Kind, FuncCol, ColdSecs, IncrSecs,
                IncrSecs > 0 ? ColdSecs / IncrSecs : 0.0, Rep.Functions,
                Rep.FunctionsChecked, Rep.FunctionsFromCache, Rep.Warnings,
                Match ? "ok" : "FAIL");
    std::fflush(stdout);
  }

  double Aggregate = IncrTotal > 0 ? ColdTotal / IncrTotal : 0;
  std::printf("\n  total cold %.3fs, total incremental %.3fs (%.1fx "
              "aggregate, %.1fx touch), mismatches %u\n",
              ColdTotal, IncrTotal, Aggregate, TouchSpeedup, Mismatches);

  if (StatsJson) {
    support::JsonWriter W;
    W.beginObject()
        .key("racecheck_bench")
        .beginObject()
        .field("scale", Scale)
        .field("functions", Cfg.NumFunctions)
        .field("edits", NumEdits)
        .field("verdicts_identical", Mismatches == 0)
        .field("touch_speedup", TouchSpeedup)
        .field("aggregate_speedup", Aggregate)
        .field("final_warnings", FinalWarnings)
        .field("cold_seconds", ColdTotal)
        .field("incremental_seconds", IncrTotal)
        .endObject()
        .endObject();
    std::puts(W.str().c_str());
  }
  return Mismatches ? 1 : 0;
}
