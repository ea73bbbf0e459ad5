//===- bench/ablation_andersen.cpp - Andersen solver ablation -------------===//
//
// Ablation for the Andersen rung of the cascade: whole-program solves
// of every Table-1 suite entry under
//   (a) the naive solver (full-set rescans, no offline collapsing) and
//   (b) the optimized solver (offline HVN pointer-equivalence
//       collapsing + difference propagation),
// both with periodic online cycle elimination. The two must produce
// byte-identical points-to sets for every variable -- the optimized
// pipeline is an exact accelerator, not an approximation -- and the
// optimized solver must win wall-clock on the big entries.
//
// Usage: ablation_andersen [scale] [--stats-json]
//
// --stats-json dumps per-entry stats (offline collapses, HVN labels,
// walked set bytes, solve seconds, speedup) plus the gate fields the
// CI smoke asserts: "all_identical" and "largest_speedup" (speedup on
// the entry with the most pointers, where work dwarfs timer noise).
//
//===----------------------------------------------------------------------===//

#include "analysis/Andersen.h"
#include "bench/BenchUtil.h"
#include "support/Json.h"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

using namespace bsaa;
using namespace bsaa::bench;

namespace {

struct EntryStats {
  std::string Name;
  uint32_t Vars = 0;
  uint32_t Pointers = 0;
  bool Identical = false;
  double NaiveSeconds = 0;
  double OptSeconds = 0;
  uint64_t NaiveBytes = 0;
  uint64_t OptBytes = 0;
  uint64_t NaiveIterations = 0;
  uint64_t OptIterations = 0;
  uint32_t OfflineCollapsed = 0;
  uint32_t CopySccVars = 0;
  uint32_t LabelMergedVars = 0;
  uint32_t HvnLabels = 0;
  double speedup() const {
    return OptSeconds > 0 ? NaiveSeconds / OptSeconds : 0;
  }
};

/// Solves whole-program under \p Opts, repeating \p Repeats times and
/// keeping the fastest wall-clock (the analysis is deterministic, so
/// only timing varies between repeats).
double timedRun(analysis::AndersenAnalysis &A, unsigned Repeats) {
  double Best = 0;
  for (unsigned I = 0; I < Repeats; ++I) {
    A.run();
    if (I == 0 || A.solveSeconds() < Best)
      Best = A.solveSeconds();
  }
  return Best;
}

bool identicalPointsTo(const ir::Program &P,
                       const analysis::AndersenAnalysis &A,
                       const analysis::AndersenAnalysis &B) {
  for (ir::VarId V = 0; V < P.numVars(); ++V)
    if (A.pointsTo(V) != B.pointsTo(V))
      return false;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  bool StatsJson = takeFlag(Argc, Argv, "--stats-json");
  double Scale = scaleFromArgs(Argc, Argv, 0.25);
  const unsigned Repeats = 3;

  analysis::AndersenAnalysis::Options Naive;
  Naive.EnableHVN = false;
  Naive.EnableDiffProp = false;
  analysis::AndersenAnalysis::Options Optimized;
  Optimized.EnableHVN = true;
  Optimized.EnableDiffProp = true;

  std::vector<EntryStats> All;
  std::printf("Andersen solver ablation (scale %.2f, best of %u runs)\n",
              Scale, Repeats);
  std::printf("  %-12s %8s %8s %10s %10s %8s %9s %11s\n", "entry", "vars",
              "ptrs", "naive-s", "opt-s", "speedup", "collapsed", "bytes-walk");

  for (const workload::SuiteEntry &Entry : workload::table1Suite(Scale)) {
    std::unique_ptr<ir::Program> P = compileEntry(Entry);
    EntryStats S;
    S.Name = Entry.Name;
    S.Vars = P->numVars();
    S.Pointers = P->numPointers();

    analysis::AndersenAnalysis NaiveRun(*P, Naive);
    S.NaiveSeconds = timedRun(NaiveRun, Repeats);
    S.NaiveBytes = NaiveRun.propagatedBytes();
    S.NaiveIterations = NaiveRun.iterations();

    analysis::AndersenAnalysis OptRun(*P, Optimized);
    S.OptSeconds = timedRun(OptRun, Repeats);
    S.OptBytes = OptRun.propagatedBytes();
    S.OptIterations = OptRun.iterations();
    S.OfflineCollapsed = OptRun.prepareStats().Collapsed;
    S.CopySccVars = OptRun.prepareStats().CopySccVars;
    S.LabelMergedVars = OptRun.prepareStats().LabelMergedVars;
    S.HvnLabels = OptRun.prepareStats().Labels;

    S.Identical = identicalPointsTo(*P, NaiveRun, OptRun);

    std::printf("  %-12s %8u %8u %10.3f %10.3f %7.2fx %9u %5" PRIu64
                "/%-5" PRIu64 "%s\n",
                S.Name.c_str(), S.Vars, S.Pointers, S.NaiveSeconds,
                S.OptSeconds, S.speedup(), S.OfflineCollapsed,
                S.OptBytes >> 10, S.NaiveBytes >> 10,
                S.Identical ? "" : "  RESULTS DIFFER");
    std::fflush(stdout);
    All.push_back(std::move(S));
  }

  bool AllIdentical = true;
  const EntryStats *Largest = nullptr;
  for (const EntryStats &S : All) {
    AllIdentical = AllIdentical && S.Identical;
    if (!Largest || S.Pointers > Largest->Pointers)
      Largest = &S;
  }
  std::printf("\nlargest entry: %s, speedup %.2fx, identical: %s\n",
              Largest ? Largest->Name.c_str() : "-",
              Largest ? Largest->speedup() : 0, AllIdentical ? "yes" : "NO");

  if (StatsJson) {
    support::JsonWriter W;
    W.beginObject().key("entries").beginArray();
    for (const EntryStats &S : All)
      W.beginObject()
          .field("name", S.Name)
          .field("vars", S.Vars)
          .field("pointers", S.Pointers)
          .field("identical", S.Identical)
          .field("naive_seconds", S.NaiveSeconds)
          .field("opt_seconds", S.OptSeconds)
          .field("speedup", S.speedup())
          .field("naive_bytes_walked", S.NaiveBytes)
          .field("opt_bytes_walked", S.OptBytes)
          .field("naive_iterations", S.NaiveIterations)
          .field("opt_iterations", S.OptIterations)
          .field("offline_collapsed", S.OfflineCollapsed)
          .field("copy_scc_vars", S.CopySccVars)
          .field("label_merged_vars", S.LabelMergedVars)
          .field("hvn_labels", S.HvnLabels)
          .endObject();
    W.endArray()
        .field("all_identical", AllIdentical)
        .field("largest_entry", Largest ? Largest->Name.c_str() : "-")
        .field("largest_speedup", Largest ? Largest->speedup() : 0.0)
        .endObject();
    std::puts(W.str().c_str());
  }
  return AllIdentical ? 0 : 1;
}
