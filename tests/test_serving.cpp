//===- tests/test_serving.cpp - Multi-tenant serving registry -------------===//
//
// The multi-tenant serving oracle and admission-control semantics:
//
//  * K tenants under interleaved edit streams serve answers
//    byte-identical to a cold single-tenant AliasService replaying
//    exactly the versions the registry analyzed (appliedTags) -- with
//    byte-identical driver statistics, so the isolation claim (own
//    caches, own Statistics registry) is checked at full strength;
//  * coalescing: a drain over a coalesced queue produces the same final
//    analysis state as applying every version one by one, and the
//    superseded versions are provably never analyzed;
//  * backpressure: a full queue rejects (never blocks), the counts are
//    exact, and rejected versions leave no trace in the applied stream;
//  * cross-tenant eviction re-materializes but never changes answers;
//  * per-driver Statistics registries make concurrent drivers
//    re-entrant (the hazard: update() clears its effective registry).
//
// Concurrency stress (TSan-targeted) lives in test_serving_stress.cpp,
// built as a separate ctest-labeled binary so sanitizer jobs can run it
// exclusively.
//
//===----------------------------------------------------------------------===//

#include "serving/TenantRegistry.h"

#include "core/ClusterDependencies.h"
#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "fscs/StateCodec.h"
#include "racecheck/RaceCheckEngine.h"
#include "support/Statistics.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
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

/// The editable incremental workload (tests/test_incremental.cpp).
workload::GeneratorConfig editableConfig(uint32_t NumFunctions,
                                         uint64_t Seed) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.NumFunctions = NumFunctions;
  Cfg.StmtsPerFunction = 12;
  Cfg.Communities = 4;
  Cfg.PointerFunctionPercent = 60;
  Cfg.WeightNoise = 20;
  Cfg.WeightCall = 4;
  Cfg.RecursionPercent = 0;
  Cfg.CrossCommunityBasisPoints = 0;
  return Cfg;
}

core::BootstrapOptions baseOptions() {
  core::BootstrapOptions Opts;
  Opts.AndersenThreshold = 60;
  Opts.EngineOpts.StepBudget = 50000;
  return Opts;
}

serving::ServingOptions servingOptions() {
  serving::ServingOptions SOpts;
  SOpts.BOpts = baseOptions();
  return SOpts;
}

const core::StatsJsonOptions Strip{/*IncludeTimings=*/false,
                                   /*IncludeCacheStats=*/false};

/// Query batch over the pointer variables of \p P (every pair, at the
/// canonical location), capped to keep test time sane.
std::vector<query::MayAliasQuery> pointerPairs(const ir::Program &P,
                                               size_t Cap = 400) {
  std::vector<ir::VarId> Ptrs;
  for (ir::VarId V = 0; V < P.numVars(); ++V)
    if (P.var(V).isPointer())
      Ptrs.push_back(V);
  std::vector<query::MayAliasQuery> Batch;
  for (size_t I = 0; I < Ptrs.size(); ++I)
    for (size_t J = I + 1; J < Ptrs.size() && Batch.size() < Cap; ++J)
      Batch.push_back({Ptrs[I], Ptrs[J], ir::InvalidLoc});
  return Batch;
}

/// Prefix followed by the decimal N ("t3"). Built by appending: GCC 12
/// misreports `const char * + std::string&&` under -Wrestrict.
std::string numbered(const char *Prefix, uint64_t N) {
  std::string S = Prefix;
  S += std::to_string(N);
  return S;
}

} // namespace

//===--------------------------------------------------------------------===//
// The multi-tenant differential oracle
//===--------------------------------------------------------------------===//

TEST(Serving, MultiTenantOracleMatchesColdReplay) {
  constexpr uint32_t K = 3;
  constexpr uint32_t NumEdits = 6;

  std::vector<workload::GeneratorConfig> Cfgs;
  std::vector<std::vector<workload::EditState>> Versions(K);
  std::vector<std::vector<std::string>> Touched(K);
  for (uint32_t T = 0; T < K; ++T) {
    Cfgs.push_back(editableConfig(8, /*Seed=*/100 + T));
    workload::EditState St = workload::initialEditState(Cfgs[T]);
    Versions[T].push_back(St);
    Touched[T].push_back("");
    for (const workload::ProgramEdit &E :
         workload::generateEditStream(Cfgs[T], NumEdits, /*StreamSeed=*/3 + T)) {
      workload::applyEdit(St, E);
      Versions[T].push_back(St);
      Touched[T].push_back(workload::editedFunctionName(E));
    }
  }

  serving::TenantRegistry Reg(servingOptions());
  for (uint32_t T = 0; T < K; ++T)
    ASSERT_EQ(Reg.addTenant(numbered("t", T)), T);

  // Interleave the streams round-robin: version v of every tenant is
  // submitted before version v+1 of any, so drains of different
  // tenants overlap constantly.
  for (uint32_t V = 0; V < NumEdits + 1; ++V)
    for (uint32_t T = 0; T < K; ++T) {
      serving::SubmitStatus S =
          Reg.submitEdit(T, compileVersion(Cfgs[T], Versions[T][V]),
                         Touched[T][V], /*Tag=*/V);
      ASSERT_TRUE(S == serving::SubmitStatus::Accepted ||
                  S == serving::SubmitStatus::Coalesced)
          << serving::submitStatusName(S);
    }
  Reg.waitIdle();

  for (uint32_t T = 0; T < K; ++T) {
    ASSERT_TRUE(Reg.ready(T));
    std::vector<uint64_t> Tags = Reg.appliedTags(T);
    ASSERT_FALSE(Tags.empty());
    EXPECT_EQ(Tags.front(), 0u);
    EXPECT_EQ(Tags.back(), NumEdits);

    // Cold single-tenant replay of exactly the versions the registry
    // analyzed, with fresh caches and a fresh (global) registry epoch.
    Statistics::global().clear();
    query::AliasService Cold(baseOptions());
    for (uint64_t Tag : Tags)
      Cold.update(compileVersion(Cfgs[T], Versions[T][Tag]));

    std::vector<query::MayAliasQuery> Batch =
        pointerPairs(Reg.snapshot(T)->program());
    EXPECT_EQ(Reg.evalMayAlias(T, Batch),
              Cold.engine().evalMayAlias(Batch, 0));

    // Full-strength isolation check: the tenant's driver statistics
    // are byte-identical to the cold replay's -- impossible if another
    // tenant's update had cleared or polluted this tenant's registry.
    core::IncrementalDriver &Inc = Reg.service(T).driver();
    EXPECT_EQ(core::toStatsJson(Inc.lastResult(), Strip, Inc.statsRegistry()),
              core::toStatsJson(Cold.driver().lastResult(), Strip,
                                Cold.driver().statsRegistry()));

    serving::TenantStats St = Reg.stats(T);
    EXPECT_EQ(St.EditsApplied, Tags.size());
    EXPECT_EQ(St.EditsAccepted, St.EditsApplied);
    EXPECT_EQ(St.EditsRejected, 0u);
    EXPECT_EQ(St.QueueDepth, 0u);
    EXPECT_GT(St.Queries, 0u);
  }
}

//===--------------------------------------------------------------------===//
// Coalescing: drain == one-by-one, superseded versions never analyzed
//===--------------------------------------------------------------------===//

TEST(Serving, CoalescedDrainMatchesOneByOneReplay) {
  workload::GeneratorConfig Cfg = editableConfig(8, /*Seed=*/42);

  // Three consecutive mutate edits of the same function: exactly the
  // burst the tail-coalescing rule is for.
  workload::ProgramEdit E{workload::EditKind::Mutate, /*Function=*/2};
  std::vector<workload::EditState> Versions;
  workload::EditState St = workload::initialEditState(Cfg);
  Versions.push_back(St);
  for (int I = 0; I < 3; ++I) {
    workload::applyEdit(St, E);
    Versions.push_back(St);
  }

  serving::ServingOptions SOpts = servingOptions();
  SOpts.AutoDrain = false; // Deterministic: coalesce first, drain once.
  serving::TenantRegistry Reg(SOpts);
  serving::TenantId T = Reg.addTenant("coalesce");

  ASSERT_EQ(Reg.submitEdit(T, compileVersion(Cfg, Versions[0]), "", 0),
            serving::SubmitStatus::Accepted);
  Reg.drainNow(T);
  ASSERT_TRUE(Reg.ready(T));

  std::string Tag = workload::editedFunctionName(E);
  EXPECT_EQ(Tag, "f2");
  EXPECT_EQ(Reg.submitEdit(T, compileVersion(Cfg, Versions[1]), Tag, 1),
            serving::SubmitStatus::Accepted);
  EXPECT_EQ(Reg.submitEdit(T, compileVersion(Cfg, Versions[2]), Tag, 2),
            serving::SubmitStatus::Coalesced);
  EXPECT_EQ(Reg.submitEdit(T, compileVersion(Cfg, Versions[3]), Tag, 3),
            serving::SubmitStatus::Coalesced);
  Reg.drainNow(T);

  // Versions 1 and 2 were superseded in place: never analyzed.
  EXPECT_EQ(Reg.appliedTags(T), (std::vector<uint64_t>{0, 3}));
  serving::TenantStats Stats = Reg.stats(T);
  EXPECT_EQ(Stats.EditsAccepted, 2u);
  EXPECT_EQ(Stats.EditsCoalesced, 2u);
  EXPECT_EQ(Stats.EditsApplied, 2u);

  // The property: the coalesced jump v0 -> v3 must land in the same
  // analysis state as applying v0, v1, v2, v3 one by one -- same
  // verdicts, and (stripped) byte-identical statistics, because the
  // fingerprint diff of the jump is the union of the per-step diffs.
  Statistics::global().clear();
  query::AliasService OneByOne(baseOptions());
  for (const workload::EditState &V : Versions)
    OneByOne.update(compileVersion(Cfg, V));

  std::vector<query::MayAliasQuery> Batch =
      pointerPairs(Reg.snapshot(T)->program());
  EXPECT_EQ(Reg.evalMayAlias(T, Batch),
            OneByOne.engine().evalMayAlias(Batch, 0));
  core::IncrementalDriver &Inc = Reg.service(T).driver();
  EXPECT_EQ(core::toStatsJson(Inc.lastResult(), Strip, Inc.statsRegistry()),
            core::toStatsJson(OneByOne.driver().lastResult(), Strip,
                              OneByOne.driver().statsRegistry()));
}

TEST(Serving, CoalescingRequiresMatchingTailTag) {
  workload::GeneratorConfig Cfg = editableConfig(8, /*Seed=*/43);
  workload::EditState V0 = workload::initialEditState(Cfg);
  workload::EditState V1 = V0, V2 = V0;
  workload::applyEdit(V1, {workload::EditKind::Mutate, 2});
  V2 = V1;
  workload::applyEdit(V2, {workload::EditKind::Mutate, 3});

  serving::ServingOptions SOpts = servingOptions();
  SOpts.AutoDrain = false;
  serving::TenantRegistry Reg(SOpts);
  serving::TenantId T = Reg.addTenant("tags");

  // Different touched functions never coalesce; empty tags never do.
  EXPECT_EQ(Reg.submitEdit(T, compileVersion(Cfg, V0), "", 0),
            serving::SubmitStatus::Accepted);
  EXPECT_EQ(Reg.submitEdit(T, compileVersion(Cfg, V1), "f2", 1),
            serving::SubmitStatus::Accepted);
  EXPECT_EQ(Reg.submitEdit(T, compileVersion(Cfg, V2), "f3", 2),
            serving::SubmitStatus::Accepted);
  Reg.drainNow(T);
  EXPECT_EQ(Reg.appliedTags(T), (std::vector<uint64_t>{0, 1, 2}));
}

//===--------------------------------------------------------------------===//
// Backpressure
//===--------------------------------------------------------------------===//

TEST(Serving, FullQueueRejectsWithoutBlocking) {
  workload::GeneratorConfig Cfg = editableConfig(8, /*Seed=*/44);
  workload::EditState St = workload::initialEditState(Cfg);

  serving::ServingOptions SOpts = servingOptions();
  SOpts.AutoDrain = false;
  SOpts.EditQueueCapacity = 2;
  serving::TenantRegistry Reg(SOpts);
  serving::TenantId T = Reg.addTenant("backpressure");

  ASSERT_EQ(Reg.submitEdit(T, compileVersion(Cfg, St), "", 0),
            serving::SubmitStatus::Accepted);
  Reg.drainNow(T);

  // Queue capacity 2: third distinct-function submission must reject
  // (and, with no drain running in manual mode, provably not block).
  std::vector<workload::EditState> Vs;
  for (uint32_t F = 1; F <= 3; ++F) {
    workload::applyEdit(St, {workload::EditKind::Mutate, F});
    Vs.push_back(St);
  }
  EXPECT_EQ(Reg.submitEdit(T, compileVersion(Cfg, Vs[0]), "f1", 1),
            serving::SubmitStatus::Accepted);
  EXPECT_EQ(Reg.submitEdit(T, compileVersion(Cfg, Vs[1]), "f2", 2),
            serving::SubmitStatus::Accepted);
  EXPECT_EQ(Reg.submitEdit(T, compileVersion(Cfg, Vs[2]), "f3", 3),
            serving::SubmitStatus::RejectedQueueFull);

  serving::TenantStats Stats = Reg.stats(T);
  EXPECT_EQ(Stats.EditsAccepted, 3u);
  EXPECT_EQ(Stats.EditsRejected, 1u);
  EXPECT_EQ(Stats.QueueDepth, 2u);

  Reg.drainNow(T);
  // The rejected version leaves no trace in the applied stream.
  EXPECT_EQ(Reg.appliedTags(T), (std::vector<uint64_t>{0, 1, 2}));
  EXPECT_EQ(Reg.stats(T).QueueDepth, 0u);

  // Unknown tenants are a status, not a crash.
  EXPECT_EQ(Reg.submitEdit(99, compileVersion(Cfg, Vs[0]), "", 0),
            serving::SubmitStatus::UnknownTenant);
}

//===--------------------------------------------------------------------===//
// Cross-tenant eviction: re-materialization, never answer drift
//===--------------------------------------------------------------------===//

TEST(Serving, CrossTenantEvictionKeepsAnswersIdentical) {
  constexpr uint32_t K = 2;
  std::vector<workload::GeneratorConfig> Cfgs;
  for (uint32_t T = 0; T < K; ++T)
    Cfgs.push_back(editableConfig(10, /*Seed=*/200 + T));

  serving::ServingOptions SOpts = servingOptions();
  SOpts.GlobalMaxResidentClusters = 2; // Far below one tenant's needs.
  serving::TenantRegistry Capped(SOpts);
  serving::TenantRegistry Uncapped(servingOptions());

  for (uint32_t T = 0; T < K; ++T) {
    ASSERT_EQ(Capped.addTenant(numbered("c", T)), T);
    ASSERT_EQ(Uncapped.addTenant(numbered("u", T)), T);
    workload::EditState St = workload::initialEditState(Cfgs[T]);
    ASSERT_EQ(Capped.submitEdit(T, compileVersion(Cfgs[T], St), "", 0),
              serving::SubmitStatus::Accepted);
    ASSERT_EQ(Uncapped.submitEdit(T, compileVersion(Cfgs[T], St), "", 0),
              serving::SubmitStatus::Accepted);
  }
  Capped.waitIdle();
  Uncapped.waitIdle();

  // Several alternating rounds so the accountant keeps trimming the
  // other tenant's snapshot while this one re-materializes.
  uint64_t TotalEvictions = 0;
  for (int Round = 0; Round < 3; ++Round)
    for (uint32_t T = 0; T < K; ++T) {
      std::vector<query::MayAliasQuery> Batch =
          pointerPairs(Capped.snapshot(T)->program());
      EXPECT_EQ(Capped.evalMayAlias(T, Batch),
                Uncapped.evalMayAlias(T, Batch));
      TotalEvictions += Capped.stats(T).Snapshot.Evictions;
    }
  EXPECT_GT(TotalEvictions, 0u) << "budget never actually enforced";

  // The budget holds after enforcement (publishes enforce eagerly;
  // query-path probes are amortized, so allow in-flight materialization
  // on the tenant queried last).
  uint64_t Resident = 0;
  for (uint32_t T = 0; T < K; ++T)
    Resident += Capped.stats(T).Snapshot.Resident;
  EXPECT_LE(Resident, SOpts.GlobalMaxResidentClusters +
                          Capped.stats(K - 1).Snapshot.Resident);
}

TEST(Serving, TrimResidentFloorsAtOneLikeMaterialize) {
  // LRU floor invariant: materialize() floors the cap at one resident
  // entry, so trimResident(0) -- the shape enforceGlobalBudget produces
  // when a tenant's overshoot exceeds its residency -- must not evict
  // to zero underneath it. The floor keeps the most-recent entry.
  workload::GeneratorConfig Cfg = editableConfig(10, /*Seed=*/770);
  serving::TenantRegistry Reg(servingOptions());
  ASSERT_EQ(Reg.addTenant("floor"), 0u);
  workload::EditState St = workload::initialEditState(Cfg);
  ASSERT_EQ(Reg.submitEdit(0, compileVersion(Cfg, St), "", 0),
            serving::SubmitStatus::Accepted);
  Reg.waitIdle();

  std::shared_ptr<const query::QuerySnapshot> Snap = Reg.snapshot(0);
  ASSERT_TRUE(Snap);
  std::vector<query::MayAliasQuery> Batch = pointerPairs(Snap->program());
  std::vector<uint8_t> Before = Reg.evalMayAlias(0, Batch);
  ASSERT_GT(Snap->stats().Resident, 1u)
      << "need several resident clusters to make the trim meaningful";

  Snap->trimResident(0);
  EXPECT_EQ(Snap->stats().Resident, 1u)
      << "trim to zero must stop at the same floor materialize() keeps";

  // Evicted analyses re-materialize; verdicts are unchanged.
  EXPECT_EQ(Reg.evalMayAlias(0, Batch), Before);
}

//===--------------------------------------------------------------------===//
// Per-driver Statistics registries (the re-entrancy fix)
//===--------------------------------------------------------------------===//

TEST(Serving, PerDriverStatsRegistriesAreReentrant) {
  workload::GeneratorConfig CfgA = editableConfig(8, /*Seed=*/300);
  workload::GeneratorConfig CfgB = editableConfig(8, /*Seed=*/301);
  workload::EditState StA = workload::initialEditState(CfgA);
  workload::EditState StB = workload::initialEditState(CfgB);

  // Interleaved updates of two drivers, each with its own registry.
  // With the global registry this interleaving is the documented
  // hazard: B's update() clears the registry A accumulated into.
  core::BootstrapOptions OptsA = baseOptions();
  OptsA.StatsRegistry = std::make_shared<Statistics>();
  core::BootstrapOptions OptsB = baseOptions();
  OptsB.StatsRegistry = std::make_shared<Statistics>();
  core::IncrementalDriver A(OptsA), B(OptsB);

  A.update(compileVersion(CfgA, StA));
  B.update(compileVersion(CfgB, StB));
  workload::applyEdit(StA, {workload::EditKind::Mutate, 2});
  A.update(compileVersion(CfgA, StA));
  workload::applyEdit(StB, {workload::EditKind::Mutate, 3});
  B.update(compileVersion(CfgB, StB));

  // Reference: the same two-version sequences run in isolation.
  core::BootstrapOptions Ref = baseOptions();
  Ref.StatsRegistry = std::make_shared<Statistics>();
  core::IncrementalDriver RefA(Ref);
  workload::EditState R = workload::initialEditState(CfgA);
  RefA.update(compileVersion(CfgA, R));
  workload::applyEdit(R, {workload::EditKind::Mutate, 2});
  RefA.update(compileVersion(CfgA, R));

  EXPECT_EQ(core::toStatsJson(A.lastResult(), Strip, A.statsRegistry()),
            core::toStatsJson(RefA.lastResult(), Strip,
                              RefA.statsRegistry()));
}

//===--------------------------------------------------------------------===//
// Per-tenant race checking
//===--------------------------------------------------------------------===//

TEST(Serving, PerTenantRaceCheckMatchesColdService) {
  workload::GeneratorConfig Cfg = editableConfig(8, /*Seed=*/400);
  Cfg.StmtsPerFunction = 10;
  Cfg.LockPointers = 3;
  Cfg.SharedVariables = 3;
  Cfg.LockDensity = 2;
  workload::EditState St = workload::initialEditState(Cfg);

  serving::ServingOptions SOpts = servingOptions();
  SOpts.EnableRaceCheck = true;
  serving::TenantRegistry Reg(SOpts);
  serving::TenantId T = Reg.addTenant("races");
  ASSERT_EQ(Reg.raceReport(T), nullptr) << "report before first publish";

  ASSERT_EQ(Reg.submitEdit(T, compileVersion(Cfg, St), "", 0),
            serving::SubmitStatus::Accepted);
  Reg.waitIdle();

  std::shared_ptr<const racecheck::RaceReport> Got = Reg.raceReport(T);
  ASSERT_NE(Got, nullptr);

  racecheck::RaceCheckService Cold(baseOptions());
  Cold.update(compileVersion(Cfg, St));
  std::shared_ptr<const racecheck::RaceReport> Want = Cold.report();
  ASSERT_NE(Want, nullptr);
  EXPECT_GT(Want->Warnings.size(), 0u) << "workload carries no races";
  EXPECT_EQ(Got->Warnings.size(), Want->Warnings.size());
  EXPECT_EQ(Reg.stats(T).RaceWarnings, Want->Warnings.size());
}

//===--------------------------------------------------------------------===//
// Stats export
//===--------------------------------------------------------------------===//

TEST(Serving, ToStatsJsonCoversEveryTenant) {
  workload::GeneratorConfig Cfg = editableConfig(8, /*Seed=*/500);
  workload::EditState St = workload::initialEditState(Cfg);

  serving::TenantRegistry Reg(servingOptions());
  serving::TenantId A = Reg.addTenant("alpha");
  Reg.addTenant("beta \"quoted\"");
  ASSERT_EQ(Reg.submitEdit(A, compileVersion(Cfg, St), "", 0),
            serving::SubmitStatus::Accepted);
  Reg.waitIdle();
  (void)Reg.evalMayAlias(A, pointerPairs(Reg.snapshot(A)->program(), 50));

  std::string Json = Reg.toStatsJson();
  EXPECT_NE(Json.find("\"num_tenants\": 2"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"name\": \"alpha\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"beta \\\"quoted\\\"\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"ready\": true"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"ready\": false"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"query_ms\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"store\": null"), std::string::npos) << Json;
}

TEST(Serving, StatsJsonEscapesControlBytesInTenantNames) {
  serving::TenantRegistry Reg(servingOptions());
  Reg.addTenant("a\"b\\c\n\x01");
  std::string Json = Reg.toStatsJson();
  EXPECT_NE(Json.find("\"name\": \"a\\\"b\\\\c\\n\\u0001\""),
            std::string::npos)
      << Json;
  EXPECT_EQ(Json.find('\x01'), std::string::npos) << "raw control byte";
}

TEST(Serving, FailedVersionIsCountedAndTheTenantKeepsServing) {
  workload::GeneratorConfig Cfg = editableConfig(8, /*Seed=*/650);
  workload::EditState St = workload::initialEditState(Cfg);

  auto Poisoned = std::make_shared<std::atomic<bool>>(false);
  serving::ServingOptions SOpts = servingOptions();
  SOpts.BOpts.ClusterHook = [Poisoned](const core::Cluster &) {
    if (Poisoned->load())
      throw std::runtime_error("injected cluster failure");
  };
  serving::TenantRegistry Reg(SOpts);
  serving::TenantId T = Reg.addTenant("flaky");

  ASSERT_EQ(Reg.submitEdit(T, compileVersion(Cfg, St)),
            serving::SubmitStatus::Accepted);
  Reg.waitIdle();
  std::shared_ptr<const query::QuerySnapshot> V1 = Reg.snapshot(T);
  ASSERT_TRUE(V1);

  // The second version throws while its clusters are analyzed.
  Poisoned->store(true);
  workload::applyEdit(St, {workload::EditKind::Append, /*Function=*/0});
  ASSERT_EQ(Reg.submitEdit(T, compileVersion(Cfg, St)),
            serving::SubmitStatus::Accepted);
  Reg.waitIdle();
  serving::TenantStats Stats = Reg.stats(T);
  EXPECT_EQ(Stats.EditsApplied, 1u);
  EXPECT_EQ(Stats.EditsFailed, 1u);
  EXPECT_EQ(Reg.snapshot(T), V1) << "the tenant must keep serving v1";
  EXPECT_NE(Reg.toStatsJson().find("\"applied\": 1, \"failed\": 1"),
            std::string::npos)
      << Reg.toStatsJson();

  // The next good edit still applies.
  Poisoned->store(false);
  workload::applyEdit(St, {workload::EditKind::Append, /*Function=*/1});
  ASSERT_EQ(Reg.submitEdit(T, compileVersion(Cfg, St)),
            serving::SubmitStatus::Accepted);
  Reg.waitIdle();
  Stats = Reg.stats(T);
  EXPECT_EQ(Stats.EditsApplied, 2u);
  EXPECT_EQ(Stats.EditsFailed, 1u);
  EXPECT_NE(Reg.snapshot(T), V1);
}

TEST(Serving, IdleTenantQuantilesAreNullNotZero) {
  // An SLO gate reading "p99": 0 for a tenant that never served a query
  // would pass vacuously; absent data must render as JSON null and as
  // empty optionals in TenantStats.
  serving::TenantRegistry Reg(servingOptions());
  serving::TenantId T = Reg.addTenant("idle");

  serving::TenantStats St = Reg.stats(T);
  EXPECT_FALSE(St.QueryP50Ms.has_value());
  EXPECT_FALSE(St.QueryP95Ms.has_value());
  EXPECT_FALSE(St.QueryP99Ms.has_value());
  EXPECT_FALSE(St.PublishP50Ms.has_value());
  EXPECT_FALSE(St.PublishP99Ms.has_value());

  std::string Json = Reg.toStatsJson();
  EXPECT_NE(
      Json.find("\"query_ms\": {\"p50\": null, \"p95\": null, \"p99\": null}"),
      std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"publish_ms\": {\"p50\": null, \"p99\": null}"),
            std::string::npos)
      << Json;

  // Once traffic exists the quantiles materialize.
  workload::GeneratorConfig Cfg = editableConfig(8, /*Seed=*/600);
  workload::EditState St0 = workload::initialEditState(Cfg);
  ASSERT_EQ(Reg.submitEdit(T, compileVersion(Cfg, St0), "", 0),
            serving::SubmitStatus::Accepted);
  Reg.waitIdle();
  (void)Reg.evalMayAlias(T, pointerPairs(Reg.snapshot(T)->program(), 10));
  St = Reg.stats(T);
  EXPECT_TRUE(St.QueryP99Ms.has_value());
  EXPECT_TRUE(St.PublishP99Ms.has_value());
}

//===--------------------------------------------------------------------===//
// Warm-start onboarding from a shared persistent store
//===--------------------------------------------------------------------===//

TEST(Serving, StoreHoldsOneSummaryRecordPerClusterRun) {
  std::string Tmpl =
      (std::filesystem::temp_directory_path() / "bsaa_serve_XXXXXX").string();
  ASSERT_NE(::mkdtemp(Tmpl.data()), nullptr);
  const std::string StoreDir = Tmpl;

  workload::GeneratorConfig Cfg = editableConfig(8, /*Seed=*/750);
  workload::EditState St = workload::initialEditState(Cfg);
  serving::ServingOptions SOpts = servingOptions();
  SOpts.BOpts.AndersenThreshold = 4; // Many clusters.
  SOpts.BOpts.StorePath = StoreDir;

  // Publishing over a fresh store: one summary record per solved
  // cluster, filed under the run's key, and nothing else beside the
  // slice and refinement records.
  uint32_t NumClusters = 0;
  {
    serving::TenantRegistry Reg(SOpts);
    serving::TenantId T = Reg.addTenant("cold");
    ASSERT_EQ(Reg.submitEdit(T, compileVersion(Cfg, St)),
              serving::SubmitStatus::Accepted);
    Reg.waitIdle();
    ASSERT_TRUE(Reg.ready(T));
    core::IncrementalDriver &Inc = Reg.service(T).driver();
    const std::vector<core::ClusterRunResult> &Runs = Inc.lastResult().Clusters;
    NumClusters = static_cast<uint32_t>(Runs.size());
    ASSERT_GT(NumClusters, 1u);
    uint64_t Solved = 0;
    for (const core::ClusterRunResult &R : Runs)
      Solved += R.FromCache ? 0 : 1;
    const core::BootstrapOptions &O = Inc.options();
    support::CacheCounters Sum = O.SummaryCache->counters();
    EXPECT_EQ(Sum.Inserts, Solved);
    EXPECT_EQ(Sum.StorePuts, Solved);
    support::CacheStoreCounters SC = O.Store->counters();
    EXPECT_EQ(SC.Records,
              Sum.StorePuts + O.RelevantSliceCache->counters().StorePuts +
                  O.AndersenRefinementCache->counters().StorePuts);
    for (const core::ClusterRunResult &R : Runs)
      EXPECT_TRUE(O.Store->get(R.Key, fscs::StoreFamilySummary));
  }

  // A fresh registry over the reopened store replays every cluster
  // with exactly one summary get each.
  {
    serving::TenantRegistry Reg(SOpts);
    serving::TenantId T = Reg.addTenant("warm");
    ASSERT_EQ(Reg.submitEdit(T, compileVersion(Cfg, St)),
              serving::SubmitStatus::Accepted);
    Reg.waitIdle();
    core::IncrementalDriver &Inc = Reg.service(T).driver();
    EXPECT_EQ(Inc.lastResult().Clusters.size(), NumClusters);
    for (const core::ClusterRunResult &R : Inc.lastResult().Clusters)
      EXPECT_TRUE(R.FromCache);
    support::CacheCounters Sum = Inc.options().SummaryCache->counters();
    EXPECT_EQ(Sum.StoreHits + Sum.StoreMisses, NumClusters);
    EXPECT_EQ(Sum.StoreHits, NumClusters);
    EXPECT_EQ(Sum.Inserts, 0u);
  }

  // After an edit outside a cluster's dependency cone, a fresh registry
  // replays that cluster from disk. An append adds a function no
  // existing cluster's cone contains and keeps every existing id.
  workload::applyEdit(St, {workload::EditKind::Append, /*Function=*/0});
  {
    serving::TenantRegistry Reg(SOpts);
    serving::TenantId T = Reg.addTenant("edited");
    ASSERT_EQ(Reg.submitEdit(T, compileVersion(Cfg, St)),
              serving::SubmitStatus::Accepted);
    Reg.waitIdle();
    core::IncrementalDriver &Inc = Reg.service(T).driver();
    const ir::Program &P = Inc.program();
    const core::SolvedCover &Solved = *Inc.lastCover();
    ir::FuncId Appended = P.numFuncs() - 1;
    uint32_t Outside = 0;
    for (size_t I = 0; I < Solved.Clusters.size(); ++I) {
      std::vector<ir::FuncId> D =
          core::dependentFunctions(P, *Solved.CG, Solved.Clusters[I]);
      if (std::find(D.begin(), D.end(), Appended) != D.end())
        continue;
      ++Outside;
      EXPECT_TRUE(Inc.lastResult().Clusters[I].FromCache) << "cluster " << I;
    }
    EXPECT_GT(Outside, 0u);
    EXPECT_GE(Inc.options().SummaryCache->counters().StoreHits, Outside);
  }

  std::error_code Ec;
  std::filesystem::remove_all(StoreDir, Ec);
}

TEST(Serving, WarmStartFromSharedStoreMatchesColdRegistry) {
  std::string Tmpl =
      (std::filesystem::temp_directory_path() / "bsaa_serve_XXXXXX").string();
  ASSERT_NE(::mkdtemp(Tmpl.data()), nullptr);
  const std::string StoreDir = Tmpl;

  workload::GeneratorConfig Cfg = editableConfig(8, /*Seed=*/700);
  workload::EditState St = workload::initialEditState(Cfg);

  auto StoreOptions = [&StoreDir] {
    serving::ServingOptions SOpts = servingOptions();
    SOpts.BOpts.AndersenThreshold = 4; // Many clusters -> many records.
    SOpts.BOpts.StorePath = StoreDir;
    return SOpts;
  };

  std::vector<uint8_t> ColdVerdicts;
  std::string ColdJson;
  {
    // First process lifetime: a cold registry populates the store.
    serving::TenantRegistry Cold(StoreOptions());
    serving::TenantId T = Cold.addTenant("cold");
    ASSERT_EQ(Cold.submitEdit(T, compileVersion(Cfg, St), "", 0),
              serving::SubmitStatus::Accepted);
    Cold.waitIdle();
    ASSERT_TRUE(Cold.ready(T));
    ColdVerdicts =
        Cold.evalMayAlias(T, pointerPairs(Cold.snapshot(T)->program()));
    core::IncrementalDriver &Inc = Cold.service(T).driver();
    ColdJson =
        core::toStatsJson(Inc.lastResult(), Strip, Inc.statsRegistry());
    support::CacheCounters C = Inc.options().SummaryCache->counters();
    EXPECT_GT(C.StorePuts, 0u) << "cold run must seed the store";
    EXPECT_EQ(C.StoreHits, 0u);
  }

  // Second process lifetime: a brand-new registry over the same store
  // directory. The freshly onboarded tenant has all-fresh in-memory
  // caches, so every summary it needs must come off disk.
  serving::TenantRegistry Warm(StoreOptions());
  serving::TenantId T = Warm.addTenant("warm");
  ASSERT_EQ(Warm.submitEdit(T, compileVersion(Cfg, St), "", 0),
            serving::SubmitStatus::Accepted);
  Warm.waitIdle();
  ASSERT_TRUE(Warm.ready(T));

  EXPECT_EQ(Warm.evalMayAlias(T, pointerPairs(Warm.snapshot(T)->program())),
            ColdVerdicts);
  core::IncrementalDriver &Inc = Warm.service(T).driver();
  EXPECT_EQ(core::toStatsJson(Inc.lastResult(), Strip, Inc.statsRegistry()),
            ColdJson)
      << "warm-started tenant must replay byte-identical stats";

  support::CacheCounters C = Inc.options().SummaryCache->counters();
  EXPECT_GT(C.StoreHits, 0u) << "nothing revived from the shared store";
  EXPECT_EQ(C.Inserts, 0u)
      << "a fully warm tenant revives every summary instead of computing";
  EXPECT_GE(C.storeHitRate(), 0.5)
      << "ISSUE acceptance: warm hit rate >= 0.5";

  // The registry's stats export the shared store's counters.
  support::CacheStoreCounters SC = Warm.options().BOpts.Store->counters();
  EXPECT_GT(SC.Records, 0u);
  EXPECT_GT(SC.GetHits, 0u);
  EXPECT_EQ(SC.Puts, 0u);
  std::ostringstream Want;
  Want << "\"store\": {\"records\": " << SC.Records
       << ", \"live_bytes\": " << SC.LiveBytes << ", \"gets\": " << SC.Gets
       << ", \"hits\": " << SC.GetHits
       << ", \"puts\": 0, \"put_duplicates\": " << SC.PutDuplicates
       << ", \"corrupt_dropped\": 0}";
  std::string Json = Warm.toStatsJson();
  EXPECT_NE(Json.find(Want.str()), std::string::npos) << Json;

  std::error_code Ec;
  std::filesystem::remove_all(StoreDir, Ec);
}
