//===- perfbench/harness/Cascade.cpp - Cold cascade workload --------------===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `cascade`: one op is a cold BootstrapDriver cascade (Steensgaard ->
/// Andersen clustering + Algorithm-1 slices -> per-cluster FSCS on a
/// 4-thread pool, 50k-step budget, no caches) over one compiled program.
/// The programs are the 20 Table-1 rows at a reduced scale, each in a
/// fixed number of variants: variant 0 is the row itself, the others
/// derive their generator seeds from the row's. Every program runs once,
/// in an order the workload seed shuffles. The variants give the
/// latency distribution a dense middle and tail, so its percentiles do
/// not jump between the few sizes of repeated programs. They are not
/// seeded: at this scale a program's cost swings by an order of
/// magnitude with its generator seed, and seeded variants moved the
/// op-latency median by half between seeds. Set-up compiles every program, so
/// the frontend lands in setup_s.
///
/// The traced pass drives the calls runAll composes -- steensgaard(),
/// buildCover(), analyzeCluster() per cluster on a 4-thread pool in the
/// same longest-first order -- with a span around each.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "core/AliasCover.h"
#include "core/BootstrapDriver.h"
#include "support/ContentHash.h"
#include "support/ThreadPool.h"
#include "workload/BenchmarkSuite.h"

#include <algorithm>
#include <numeric>

namespace bsaa {
namespace perfbench {
namespace {

/// Suite scale: one variant of each of the 20 rows takes about 2.5 s on
/// a 4-vCPU host.
constexpr double SuiteScale = 0.02;
constexpr unsigned PoolThreads = 4;
constexpr double VariantsPerSecond = 0.45;
constexpr unsigned SetupReps = 9;

core::BootstrapOptions cascadeOptions() {
  core::BootstrapOptions O;
  O.Threads = PoolThreads;
  O.EngineOpts.StepBudget = 50000;
  return O;
}

struct Compiled {
  std::string Name;
  std::unique_ptr<ir::Program> Prog;
  std::vector<ir::VarId> Pointers;
};

/// Work counters of one op's cluster results.
void countClusters(RunResult &R,
                   const std::vector<core::ClusterRunResult> &Runs) {
  for (const core::ClusterRunResult &C : Runs) {
    ++R.ClustersAnalyzed;
    if (!C.BudgetHit && !C.Approximated)
      ++R.ClustersComplete;
    R.Counts["core.clusters"] += 1;
    R.Counts["core.slice_statements"] += C.SliceSize;
    R.Counts["fscs.steps"] += C.Steps;
    R.Counts["fscs.summary_tuples"] += C.SummaryTuples;
    R.Counts["fscs.budget_hits"] += C.BudgetHit ? 1 : 0;
  }
}

/// Oracle: the cover must contain every pointer (cover condition (i)).
void checkCover(RunResult &R, const Compiled &C,
                const std::vector<core::Cluster> &Cover) {
  if (!core::coversAll(Cover, C.Pointers))
    R.fail("cascade: cover of " + C.Name + " misses a pointer");
}

} // namespace

RunResult runCascade(const RunConfig &Cfg, Tracer &T) {
  RunResult R;
  R.Clients = 1;
  R.Threads = PoolThreads;

  uint64_t Variants = scaledCount(VariantsPerSecond, Cfg.Seconds, 1);
  if (Cfg.Trace)
    Variants = std::max<uint64_t>(1, Variants / 2);
  std::vector<workload::SuiteEntry> Suite;
  for (uint64_t V = 0; V < Variants; ++V)
    for (workload::SuiteEntry E : workload::table1Suite(SuiteScale)) {
      if (V)
        E.Config.Seed = deriveSeed(E.Config.Seed, V);
      Suite.push_back(std::move(E));
    }

  // Set-up compiles every program; untraced runs repeat it and report
  // the median. Generating the sources is input preparation, not timed.
  std::vector<std::string> Sources;
  uint64_t SourceBytes = 0;
  for (const workload::SuiteEntry &E : Suite) {
    Sources.push_back(workload::generateProgram(E.Config));
    SourceBytes += Sources.back().size();
  }
  uint16_t NCompile = T.name("frontend.compile");
  std::vector<Compiled> Progs =
      timedSetups(R, Cfg.Trace ? 1 : SetupReps, [&] {
        std::vector<Compiled> Out;
        for (size_t I = 0; I < Suite.size(); ++I) {
          Compiled C;
          C.Name = Suite[I].Name;
          {
            Span S(T, NCompile, 0, 0);
            C.Prog = compileSource(Sources[I]);
          }
          C.Pointers = pointerVars(*C.Prog);
          Out.push_back(std::move(C));
        }
        return Out;
      });

  // The op list: every program once, in a seeded order.
  std::vector<size_t> OpProgram(Progs.size());
  std::iota(OpProgram.begin(), OpProgram.end(), size_t(0));
  support::SplitMix64 Shuffle(deriveSeed(Cfg.Seed, 5));
  for (size_t I = OpProgram.size(); I > 1; --I)
    std::swap(OpProgram[I - 1], OpProgram[Shuffle.next() % I]);
  uint64_t NumOps = OpProgram.size();
  core::BootstrapOptions Opts = cascadeOptions();

  // The timed (untraced) pass: the public front end, runAll over a
  // cover built just before it. The coverage check between the two
  // calls sits outside the op's timed segments.
  auto UntracedPass = [&](RunResult &Into) {
    for (uint64_t I = 0; I < NumOps; ++I) {
      const Compiled &C = Progs[OpProgram[I]];
      uint64_t T0 = nowNs();
      core::BootstrapDriver D(*C.Prog, Opts);
      std::vector<core::Cluster> Cover = D.buildCover();
      uint64_t T1 = nowNs();
      checkCover(Into, C, Cover);
      uint64_t T2 = nowNs();
      core::BootstrapResult Res = D.runAll(std::move(Cover));
      uint64_t T3 = nowNs();
      Into.OpNs.push_back((T1 - T0) + (T3 - T2));
      countClusters(Into, Res.Clusters);
    }
  };

  if (!Cfg.Trace) {
    double Cpu0 = processCpuSeconds();
    uint64_t W0 = nowNs();
    UntracedPass(R);
    R.TimedWallSeconds = double(nowNs() - W0) * 1e-9;
    R.TimedCpuSeconds = processCpuSeconds() - Cpu0;
    R.Counts["frontend.source_bytes"] = SourceBytes;
    return R;
  }

  // Traced run: the same op list untraced (overhead baseline), then
  // through the lower-level calls with spans.
  RunResult Baseline;
  {
    uint64_t W0 = nowNs();
    UntracedPass(Baseline);
    R.UntracedPassSeconds = double(nowNs() - W0) * 1e-9;
  }
  uint16_t NOp = T.name("bench.op"), NInit = T.name("core.driver_init"),
           NSteens = T.name("analysis.steensgaard"),
           NCover = T.name("core.cover"), NCluster = T.name("fscs.cluster");
  ThreadPool Pool(PoolThreads);
  double Cpu0 = processCpuSeconds();
  uint64_t W0 = nowNs();
  for (uint64_t I = 0; I < NumOps; ++I) {
    const Compiled &C = Progs[OpProgram[I]];
    uint32_t Op = static_cast<uint32_t>(I + 1);
    uint64_t T0 = nowNs();
    std::vector<core::ClusterRunResult> Runs;
    {
      Span OpSpan(T, NOp, 0, Op);
      std::unique_ptr<core::BootstrapDriver> D;
      {
        Span S(T, NInit, OpSpan.id(), Op);
        D = std::make_unique<core::BootstrapDriver>(*C.Prog, Opts);
      }
      {
        Span S(T, NSteens, OpSpan.id(), Op);
        D->steensgaard();
      }
      std::vector<core::Cluster> Cover;
      {
        Span S(T, NCover, OpSpan.id(), Op);
        Cover = D->buildCover();
      }
      std::vector<size_t> Order(Cover.size());
      std::iota(Order.begin(), Order.end(), size_t(0));
      std::vector<uint64_t> Cost(Cover.size());
      for (size_t K = 0; K < Cover.size(); ++K)
        Cost[K] = uint64_t(Cover[K].pointerCount(*C.Prog)) *
                  Cover[K].Statements.size();
      std::stable_sort(
          Order.begin(), Order.end(),
          [&Cost](size_t A, size_t B) { return Cost[A] > Cost[B]; });
      Runs.resize(Cover.size());
      uint32_t Parent = OpSpan.id();
      for (size_t K : Order)
        Pool.submit([&, K, Parent, Op] {
          Span S(T, NCluster, Parent, Op);
          Runs[K] = D->analyzeCluster(Cover[K]);
        });
      Pool.waitAll();
    }
    R.OpNs.push_back(nowNs() - T0);
    countClusters(R, Runs);
  }
  R.TracedPassSeconds = double(nowNs() - W0) * 1e-9;
  R.TimedWallSeconds = R.TracedPassSeconds;
  R.TimedCpuSeconds = processCpuSeconds() - Cpu0;
  R.TracedOps = NumOps;
  // Both passes must have done the same work for the overhead to mean
  // anything.
  if (Baseline.Counts != R.Counts)
    R.fail("cascade: traced pass did different work than the untraced one");
  R.Failed += Baseline.Failed;
  R.Failures.insert(R.Failures.end(), Baseline.Failures.begin(),
                    Baseline.Failures.end());
  R.Counts["frontend.source_bytes"] = SourceBytes;
  return R;
}

} // namespace perfbench
} // namespace bsaa
