//===- tests/test_perf_gates.cpp - Wall-clock gates on the serving stack --===//
//
// The serving stack's three timing gates. Each one compares two
// wall-clock measurements taken in one process, so this binary's tests
// carry the ctest label `perf` and RUN_SERIAL: no other test competes
// for the cores while they time. Sanitizer builds exclude the label
// (`ctest -LE perf`), because instrumentation slows the two sides of a
// ratio unevenly.
//
//  * Indexed serving vs the naive whole-program pair loop: on
//    autofs@0.25, every pointer pair, the engine's cold pass (cluster
//    materialization included) is >= 10x faster than one whole-program
//    FSCS analysis answering the same pairs, and the inverted
//    pointer->cluster index answers part of the batch.
//  * Touch re-check vs cold: resubmitting the identical lock-heavy
//    program to a long-lived RaceCheckService is >= 5x faster than a
//    cold service checking it (best of 3 on each side, compilation
//    outside both timers), with byte-identical verdicts.
//  * Multi-tenant load: 4 tenants replay 20 edits each in bursts
//    against a tiny edit queue while querying. The worst tenant's p99
//    query latency stays under 50 ms, edits are both applied and
//    rejected, and every tenant's served verdicts equal a cold
//    AliasService replaying exactly the versions it applied
//    (appliedTags). Serving.MultiTenantOracleMatchesColdReplay checks
//    the replay oracle without rejections; this one checks it under
//    concurrent load with backpressure firing.
//
// Each test prints its measurement on stdout (`bsaa_perf_tests` run
// directly, or `ctest -V -L perf`) so the headroom over a gate is
// visible on a pass too.
//
//===----------------------------------------------------------------------===//

#include "core/AliasCover.h"
#include "core/BootstrapDriver.h"
#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "query/QueryEngine.h"
#include "racecheck/RaceCheckEngine.h"
#include "serving/TenantRegistry.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include "workload/BenchmarkSuite.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace bsaa;

namespace {

std::unique_ptr<ir::Program> compileOk(const std::string &Src) {
  frontend::Diagnostics Diags;
  std::unique_ptr<ir::Program> P = frontend::compileString(Src, Diags);
  EXPECT_TRUE(P) << Diags.toString();
  return P;
}

std::unique_ptr<ir::Program>
compileVersion(const workload::GeneratorConfig &Cfg,
               const workload::EditState &St) {
  return compileOk(workload::generateProgram(Cfg, St));
}

core::BootstrapOptions baseOptions() {
  core::BootstrapOptions Opts;
  Opts.AndersenThreshold = 60;
  Opts.EngineOpts.StepBudget = 50000;
  return Opts;
}

/// Every pair of pointer variables of \p P, at the canonical location.
std::vector<query::MayAliasQuery> pointerPairs(const ir::Program &P,
                                               ir::VarId NumVars,
                                               size_t Cap = SIZE_MAX) {
  std::vector<ir::VarId> Ptrs;
  for (ir::VarId V = 0; V < NumVars; ++V)
    if (P.var(V).isPointer())
      Ptrs.push_back(V);
  std::vector<query::MayAliasQuery> Batch;
  for (size_t I = 0; I < Ptrs.size(); ++I)
    for (size_t J = I + 1; J < Ptrs.size() && Batch.size() < Cap; ++J)
      Batch.push_back({Ptrs[I], Ptrs[J], ir::InvalidLoc});
  return Batch;
}

/// The editable incremental workload plus enough locking to carry real
/// races: every non-stubbed function gets 1..2 critical sections over
/// 8 shared variables guarded by 6 lock pointers. perfbench's
/// edit_serve workload generates its program with the same settings.
workload::GeneratorConfig raceConfig(double Scale) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = 42;
  Cfg.NumFunctions = std::max<uint32_t>(8, uint32_t(120 * Scale));
  Cfg.StmtsPerFunction = 14;
  Cfg.Communities = std::max<uint32_t>(4, uint32_t(24 * Scale));
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

/// The editable workload, one seed per tenant so no two tenants analyze
/// the same program.
workload::GeneratorConfig tenantConfig(double Scale, uint32_t TenantIdx) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = 42 + 1000 * static_cast<uint64_t>(TenantIdx);
  Cfg.NumFunctions = std::max<uint32_t>(8, uint32_t(60 * Scale));
  Cfg.StmtsPerFunction = 16;
  Cfg.Communities = std::max<uint32_t>(4, uint32_t(16 * Scale));
  Cfg.PointerFunctionPercent = 60;
  Cfg.WeightNoise = 20;
  Cfg.WeightCall = 4;
  Cfg.RecursionPercent = 0;
  Cfg.CrossCommunityBasisPoints = 0;
  return Cfg;
}

/// Prefix followed by the decimal N ("tenant3"). Built by appending:
/// GCC 12 misreports `const char * + std::string&&` under -Wrestrict.
std::string numbered(const char *Prefix, uint64_t N) {
  std::string S = Prefix;
  S += std::to_string(N);
  return S;
}

} // namespace

TEST(PerfGates, IndexedServingBeatsNaivePairLoopTenfold) {
  workload::SuiteEntry Entry = workload::suiteEntry("autofs", 0.25);
  std::shared_ptr<ir::Program> P =
      compileOk(workload::generateProgram(Entry.Config));
  ASSERT_TRUE(P);

  // The cascade the snapshot serves from; the shared summary cache is
  // what lets materialization adopt runs instead of re-analyzing.
  core::BootstrapOptions BOpts;
  BOpts.SummaryCache = std::make_shared<fscs::SummaryCache>();
  core::BootstrapDriver Driver(*P, BOpts);
  std::shared_ptr<const core::SolvedCover> Solved = Driver.buildSolvedCover();
  core::BootstrapResult Result = Driver.runAll(Solved->Clusters);

  std::vector<query::MayAliasQuery> Batch = pointerPairs(*P, P->numVars());
  ASSERT_EQ(Batch.size(), 417241u);

  // Naive baseline: one whole-program FSCS analysis answers every pair.
  uint64_t NaiveAliases = 0;
  Timer NaiveT;
  {
    core::Cluster Whole = core::wholeProgramCluster(*P);
    fscs::ClusterAliasAnalysis WholeAA(*P, Driver.callGraph(),
                                       Driver.steensgaard(), Whole);
    for (const query::MayAliasQuery &Q : Batch) {
      ir::LocId Loc = query::canonicalAliasLoc(*P, Q.A, Q.B);
      if (Loc != ir::InvalidLoc && WholeAA.mayAlias(Q.A, Q.B, Loc))
        ++NaiveAliases;
    }
  }
  double NaiveSeconds = NaiveT.seconds();

  query::QueryOptions QOpts;
  QOpts.EngineOpts = BOpts.EngineOpts;
  query::QueryEngine Engine;
  Engine.publish(query::QuerySnapshot::build(P, Solved, &Result.Clusters,
                                             QOpts, BOpts.SummaryCache));
  Timer ColdT;
  std::vector<uint8_t> Verdicts = Engine.evalMayAlias(Batch);
  double ColdSeconds = ColdT.seconds();
  query::SnapshotStats St = Engine.snapshot()->stats();

  uint64_t EngineAliases = 0;
  for (uint8_t V : Verdicts)
    EngineAliases += V;
  std::printf("naive pair loop %.3fs, engine cold %.3fs (%.1fx); aliases "
              "naive %llu, engine %llu; index answers %llu\n",
              NaiveSeconds, ColdSeconds, NaiveSeconds / ColdSeconds,
              (unsigned long long)NaiveAliases,
              (unsigned long long)EngineAliases,
              (unsigned long long)St.IndexAnswers);
  EXPECT_GE(NaiveSeconds, 10 * ColdSeconds)
      << "naive " << NaiveSeconds << "s, engine cold " << ColdSeconds << "s";
  EXPECT_GT(St.IndexAnswers, 0u);
}

TEST(PerfGates, TouchRecheckBeatsColdRaceCheckFivefold) {
  workload::GeneratorConfig Cfg = raceConfig(0.25);
  workload::EditState St = workload::initialEditState(Cfg);
  racecheck::RaceCheckService Incr(baseOptions());
  Incr.update(compileVersion(Cfg, St));

  // A touch resubmits the identical program: every cluster and every
  // function's lockset facts replay. Both sides run in milliseconds, so
  // each keeps its best of 3.
  constexpr int Reps = 3;
  double IncrSeconds = 0, ColdSeconds = 0;
  racecheck::CheckReport Rep;
  for (int R = 0; R < Reps; ++R) {
    std::unique_ptr<ir::Program> Prog = compileVersion(Cfg, St);
    Timer T;
    Rep = Incr.update(std::move(Prog));
    double S = T.seconds();
    IncrSeconds = R == 0 ? S : std::min(IncrSeconds, S);
  }
  std::string IncrJson = racecheck::toReportJson(*Incr.report());

  for (int R = 0; R < Reps; ++R) {
    Statistics::global().clear();
    std::unique_ptr<ir::Program> Prog = compileVersion(Cfg, St);
    Timer T;
    racecheck::RaceCheckService Cold(baseOptions());
    Cold.update(std::move(Prog));
    double S = T.seconds();
    ColdSeconds = R == 0 ? S : std::min(ColdSeconds, S);
    EXPECT_EQ(racecheck::toReportJson(*Cold.report()), IncrJson)
        << "cold run " << R;
  }

  std::printf("race check: cold %.4fs, touch %.4fs (%.1fx); %u warnings\n",
              ColdSeconds, IncrSeconds, ColdSeconds / IncrSeconds,
              Rep.Warnings);
  EXPECT_GE(ColdSeconds, 5 * IncrSeconds)
      << "cold " << ColdSeconds << "s, touch " << IncrSeconds << "s";
  EXPECT_GT(Rep.Warnings, 0u);
  // The work a touch skips, exactly: no cluster re-analyzed, no
  // function's facts recomputed.
  for (const core::ClusterRunResult &C :
       Incr.alias().driver().lastResult().Clusters)
    EXPECT_TRUE(C.FromCache);
  EXPECT_EQ(Rep.FunctionsChecked, 0u);
}

TEST(PerfGates, MultiTenantLoadMeetsSloAndMatchesColdReplay) {
  constexpr double Scale = 0.25;
  constexpr uint32_t NumTenants = 4;
  constexpr uint32_t NumEdits = 20;

  // Per tenant: version v is the initial program after its first v
  // edits, each tagged with the function it touched (the coalescing
  // key), and one query batch over ids valid in every version (stub
  // edits shrink the program).
  struct Plan {
    workload::GeneratorConfig Cfg;
    std::vector<workload::EditState> States;
    std::vector<std::string> Touched;
    std::vector<query::MayAliasQuery> Batch;
  };
  std::vector<Plan> Plans(NumTenants);
  for (uint32_t T = 0; T < NumTenants; ++T) {
    Plan &Pl = Plans[T];
    Pl.Cfg = tenantConfig(Scale, T);
    workload::EditState St = workload::initialEditState(Pl.Cfg);
    Pl.States.push_back(St);
    Pl.Touched.push_back("");
    for (const workload::ProgramEdit &E : workload::generateEditStream(
             Pl.Cfg, NumEdits, /*StreamSeed=*/7 + T)) {
      workload::applyEdit(St, E);
      Pl.States.push_back(St);
      Pl.Touched.push_back(workload::editedFunctionName(E));
    }
    ir::VarId MinVars = UINT32_MAX;
    for (const workload::EditState &S : Pl.States)
      MinVars = std::min(MinVars, compileVersion(Pl.Cfg, S)->numVars());
    Pl.Batch =
        pointerPairs(*compileVersion(Pl.Cfg, Pl.States[0]), MinVars, 512);
    ASSERT_FALSE(Pl.Batch.empty()) << "tenant " << T;
  }

  serving::ServingOptions SOpts;
  SOpts.BOpts = baseOptions();
  SOpts.DrainThreads = 2;
  SOpts.EditQueueCapacity = 4; // Small on purpose: backpressure is load.
  serving::TenantRegistry Reg(SOpts);
  for (uint32_t T = 0; T < NumTenants; ++T) {
    serving::TenantId Id = Reg.addTenant(numbered("tenant", T));
    ASSERT_EQ(Reg.submitEdit(Id, compileVersion(Plans[T].Cfg,
                                                 Plans[T].States[0]),
                             "", /*Tag=*/0),
              serving::SubmitStatus::Accepted);
  }
  Reg.waitIdle();

  // One client per tenant: submit the next version (two back to back
  // every other round, so coalescing and rejection fire), then four
  // query batches.
  Timer LoadT;
  {
    std::vector<std::thread> Clients;
    for (uint32_t T = 0; T < NumTenants; ++T)
      Clients.emplace_back([T, &Plans, &Reg] {
        const Plan &Pl = Plans[T];
        size_t Next = 1;
        while (Next < Pl.States.size()) {
          size_t Burst =
              (Next % 2 == 1 && Next + 1 < Pl.States.size()) ? 2 : 1;
          for (size_t B = 0; B < Burst; ++B, ++Next)
            (void)Reg.submitEdit(T, compileVersion(Pl.Cfg, Pl.States[Next]),
                                 Pl.Touched[Next], /*Tag=*/Next);
          for (int Round = 0; Round < 4; ++Round)
            (void)Reg.evalMayAlias(T, Pl.Batch);
        }
      });
    for (std::thread &C : Clients)
      C.join();
  }
  Reg.waitIdle();
  double LoadSeconds = LoadT.seconds();

  uint64_t Queries = 0, Applied = 0, Rejected = 0;
  double WorstP99Ms = 0;
  for (uint32_t T = 0; T < NumTenants; ++T) {
    serving::TenantStats St = Reg.stats(T);
    Queries += St.Queries;
    Applied += St.EditsApplied;
    Rejected += St.EditsRejected;
    // Every tenant served traffic: a missing quantile is a failure, not
    // a vacuous 0.
    ASSERT_TRUE(St.QueryP99Ms.has_value()) << "tenant " << T;
    ASSERT_TRUE(St.PublishP99Ms.has_value()) << "tenant " << T;
    WorstP99Ms = std::max(WorstP99Ms, *St.QueryP99Ms);

    // The cold replay of exactly the versions this tenant analyzed.
    query::AliasService Cold(baseOptions());
    for (uint64_t Tag : Reg.appliedTags(T))
      Cold.update(compileVersion(Plans[T].Cfg,
                                 Plans[T].States[static_cast<size_t>(Tag)]));
    EXPECT_EQ(Reg.evalMayAlias(T, Plans[T].Batch),
              Cold.engine().evalMayAlias(Plans[T].Batch))
        << "tenant " << T << " diverged from its cold replay";
  }

  double Qps = LoadSeconds > 0 ? Queries / LoadSeconds : 0.0;
  std::printf("load: %.2fs, %llu queries (%.0f q/s), worst-tenant p99 "
              "%.4f ms; edits applied %llu, rejected %llu\n",
              LoadSeconds, (unsigned long long)Queries, Qps, WorstP99Ms,
              (unsigned long long)Applied, (unsigned long long)Rejected);
  EXPECT_LT(WorstP99Ms, 50.0);
  EXPECT_GT(Qps, 0.0);
  EXPECT_GT(Applied, 0u);
  EXPECT_GT(Rejected, 0u);
}
