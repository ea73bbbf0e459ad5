//===- tests/test_query.cpp - Query-serving subsystem ---------------------===//
//
// The QueryEngine correctness artillery:
//
//  * a differential oracle over 100 generated programs: every
//    mayAlias / pointsToAt answer the engine serves must equal (when
//    the whole-program FSCS baseline is complete) or soundly
//    over-approximate the baseline's answer;
//  * the fallback chain, forced by a tiny step budget: flagged clusters
//    must route through Andersen / Steensgaard and stay sound;
//  * the inverted index short-circuit, materialization cap, and
//    summary-cache adoption -- every served materialization adopts the
//    cascade's run, from a one-shot cascade, an edit stream that keeps
//    evicting, or a registry reopened over a persistent store;
//  * pointsToAt id validation: an unknown id is never a confident
//    empty answer;
//  * the answer memo: repeated sequences equal a fresh snapshot, and
//    entries made stale by later walks are re-walked;
//  * concurrent readers during snapshot swaps (run under -DBSAA_TSAN=ON
//    to check the wait-free publish claim for real), and the reader-
//    slot rule that a retired snapshot outlives exactly its readers.
//
//===----------------------------------------------------------------------===//

#include "query/QueryEngine.h"

#include "analysis/Steensgaard.h"
#include "core/AliasCover.h"
#include "core/BootstrapDriver.h"
#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "fscs/ClusterAliasAnalysis.h"
#include "ir/CallGraph.h"
#include "serving/TenantRegistry.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace bsaa;
using query::AliasAnswer;
using query::AnswerSource;
using query::PointsToAnswer;
using query::QueryOptions;
using query::QuerySnapshot;

namespace {

std::shared_ptr<ir::Program> makeProgram(uint64_t Seed) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.NumFunctions = 5;
  Cfg.StmtsPerFunction = 6;
  Cfg.Communities = 2;
  Cfg.LocalsPerFunction = 2;
  Cfg.RecursionPercent = 10;
  frontend::Diagnostics Diags;
  std::unique_ptr<ir::Program> P =
      frontend::compileString(workload::generateProgram(Cfg), Diags);
  EXPECT_TRUE(P != nullptr) << Diags.toString();
  return std::shared_ptr<ir::Program>(std::move(P));
}

/// Runs the cascade and wraps its products into a serving snapshot --
/// the same wiring AliasService does, minus the incremental driver.
std::shared_ptr<const QuerySnapshot>
buildSnapshot(std::shared_ptr<const ir::Program> P,
              core::BootstrapOptions BOpts, QueryOptions QOpts) {
  QOpts.EngineOpts = BOpts.EngineOpts;
  core::BootstrapDriver Driver(*P, BOpts);
  std::shared_ptr<const core::SolvedCover> Solved = Driver.buildSolvedCover();
  core::BootstrapResult Result = Driver.runAll(Solved->Clusters);
  return QuerySnapshot::build(std::move(P), std::move(Solved),
                              &Result.Clusters, QOpts, BOpts.SummaryCache);
}

bool intersects(const std::vector<ir::VarId> &A,
                const std::vector<ir::VarId> &B) {
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I] < B[J])
      ++I;
    else if (B[J] < A[I])
      ++J;
    else
      return true;
  }
  return false;
}

bool isSubset(const std::vector<ir::VarId> &Small,
              const std::vector<ir::VarId> &Big) {
  return std::includes(Big.begin(), Big.end(), Small.begin(), Small.end());
}

std::vector<ir::VarId> pointerVars(const ir::Program &P) {
  std::vector<ir::VarId> Ptrs;
  for (ir::VarId V = 0; V < P.numVars(); ++V)
    if (P.var(V).isPointer())
      Ptrs.push_back(V);
  return Ptrs;
}

//===--------------------------------------------------------------------===//
// Differential oracle: engine vs whole-program FSCS baseline
//===--------------------------------------------------------------------===//

/// Checks every pointer pair and every pointer's points-to set of one
/// snapshot against a fresh whole-program FSCS baseline, with
/// whole-program Andersen as the soundness corroborator. The engine
/// may be *more precise* than the monolithic baseline -- the smaller
/// per-cluster problems resolve exactly where the whole-program engine
/// had to widen (the paper's precision argument for bootstrapping) --
/// so the contract is:
///
///  * shared-cluster (Fscs-source) verdicts equal the baseline's;
///  * an index-source "no alias" that contradicts the baseline must be
///    corroborated by Andersen (the baseline alias was spurious);
///  * on every rung, an alias both sound analyses report is never
///    missed: (baseline && Andersen) => engine.
///
/// Returns the number of pairs whose baseline verdict was complete
/// (used by the callers to assert the oracle had teeth).
size_t checkAgainstBaseline(const QuerySnapshot &Snap, const ir::Program &P,
                            bool ExpectExact) {
  analysis::SteensgaardAnalysis Steens(P);
  Steens.run();
  ir::CallGraph CG(P);
  core::Cluster Whole = core::wholeProgramCluster(P);
  fscs::ClusterAliasAnalysis Baseline(P, CG, Steens, Whole);
  analysis::AndersenAnalysis And(P);
  And.run();

  std::vector<ir::VarId> Ptrs = pointerVars(P);
  size_t CompletePairs = 0;

  for (size_t I = 0; I < Ptrs.size(); ++I) {
    for (size_t J = I + 1; J < Ptrs.size(); ++J) {
      ir::VarId A = Ptrs[I], B = Ptrs[J];
      ir::LocId Loc = query::canonicalAliasLoc(P, A, B);
      if (Loc == ir::InvalidLoc)
        continue;
      auto PA = Baseline.pointsTo(A, Loc);
      auto PB = Baseline.pointsTo(B, Loc);
      bool BaseMay = intersects(PA.Objects, PB.Objects);
      bool BaseComplete = PA.Complete && PB.Complete;
      bool AndMay = And.mayAlias(A, B);
      AliasAnswer Ans = Snap.mayAliasAt(A, B, Loc);

      // Soundness on every rung: an alias both sound analyses report
      // is real enough that no serving path may drop it.
      if (BaseMay && AndMay) {
        EXPECT_TRUE(Ans.MayAlias)
            << "unsound miss on (" << P.var(A).Name << ", "
            << P.var(B).Name << ") via "
            << query::answerSourceName(Ans.Source);
      }

      if (!BaseComplete)
        continue;
      ++CompletePairs;
      if (!ExpectExact)
        continue;
      if (Ans.Source == AnswerSource::Fscs) {
        // A shared cluster reproduces the whole-program verdict
        // exactly (the cascade-agreement property).
        EXPECT_EQ(Ans.MayAlias, BaseMay)
            << "pair (" << P.var(A).Name << ", " << P.var(B).Name << ")";
      } else if (Ans.Source == AnswerSource::Index && !Ans.MayAlias &&
                 BaseMay) {
        // The index was strictly more precise than the monolithic
        // baseline; only legitimate when Andersen corroborates that
        // the baseline's alias was a widening artifact.
        EXPECT_FALSE(AndMay)
            << "index dropped (" << P.var(A).Name << ", "
            << P.var(B).Name << ") without Andersen backing";
      }
    }

    // Points-to: exact on the precise path, sound lower bound
    // (baseline intersected with Andersen) on every path.
    ir::VarId V = Ptrs[I];
    ir::LocId Loc = query::canonicalAliasLoc(P, V, V);
    if (Loc == ir::InvalidLoc)
      continue;
    auto Base = Baseline.pointsTo(V, Loc);
    PointsToAnswer Ans = Snap.pointsToAt(V, Loc);
    if (Base.Complete) {
      std::vector<ir::VarId> AndPts = And.pointsToVars(V);
      std::vector<ir::VarId> Corroborated;
      std::set_intersection(Base.Objects.begin(), Base.Objects.end(),
                            AndPts.begin(), AndPts.end(),
                            std::back_inserter(Corroborated));
      EXPECT_TRUE(isSubset(Corroborated, Ans.Objects)) << P.var(V).Name;
      if (Ans.Complete && ExpectExact) {
        EXPECT_EQ(Ans.Objects, Base.Objects) << P.var(V).Name;
      }
    }
  }
  return CompletePairs;
}

TEST(QueryOracle, MatchesWholeProgramBaselineOn100Seeds) {
  size_t TotalCompletePairs = 0;
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::shared_ptr<ir::Program> P = makeProgram(Seed);
    ASSERT_TRUE(P != nullptr);
    core::BootstrapOptions BOpts;
    BOpts.AndersenThreshold = 4;
    BOpts.SummaryCache = std::make_shared<fscs::SummaryCache>();
    auto Snap = buildSnapshot(P, BOpts, QueryOptions());
    TotalCompletePairs += checkAgainstBaseline(*Snap, *P, true);

    // Unbudgeted cascade + unbudgeted serving: nothing may have fallen
    // back, and the index must have short-circuited at least sometimes.
    query::SnapshotStats St = Snap->stats();
    EXPECT_EQ(St.AndersenAnswers + St.SteensgaardAnswers, 0u)
        << "fallback taken without any flagged cluster";
    EXPECT_GT(St.IndexAnswers, 0u);
  }
  // The oracle only has teeth if the baseline actually decided pairs.
  EXPECT_GT(TotalCompletePairs, 1000u);
}

TEST(QueryOracle, BudgetedCascadeStaysSoundViaFallbackChain) {
  uint64_t TotalFallbackAnswers = 0;
  uint64_t TotalFlaggedClusters = 0;
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::shared_ptr<ir::Program> P = makeProgram(Seed);
    ASSERT_TRUE(P != nullptr);
    core::BootstrapOptions BOpts;
    BOpts.AndersenThreshold = 4;
    // A step budget tiny enough that real clusters get truncated and
    // flagged -- the configuration the fallback chain exists for.
    BOpts.EngineOpts.StepBudget = 50;
    auto Snap = buildSnapshot(P, BOpts, QueryOptions());
    for (uint32_t CI = 0; CI < Snap->cover().size(); ++CI)
      if (Snap->clusterNeedsFallback(CI))
        ++TotalFlaggedClusters;
    checkAgainstBaseline(*Snap, *P, false);
    query::SnapshotStats St = Snap->stats();
    TotalFallbackAnswers += St.AndersenAnswers + St.SteensgaardAnswers;
  }
  // The acceptance bar: the budget actually flagged clusters and the
  // chain actually served answers through the fallback rungs.
  EXPECT_GT(TotalFlaggedClusters, 0u);
  EXPECT_GT(TotalFallbackAnswers, 0u);
}

TEST(QueryOracle, SteensgaardFallbackArmIsSoundToo) {
  uint64_t SteensAnswers = 0;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::shared_ptr<ir::Program> P = makeProgram(Seed);
    ASSERT_TRUE(P != nullptr);
    core::BootstrapOptions BOpts;
    BOpts.AndersenThreshold = 4;
    BOpts.EngineOpts.StepBudget = 50;
    QueryOptions QOpts;
    QOpts.UseAndersenFallback = false;
    auto Snap = buildSnapshot(P, BOpts, QOpts);
    checkAgainstBaseline(*Snap, *P, false);
    query::SnapshotStats St = Snap->stats();
    EXPECT_EQ(St.AndersenAnswers, 0u);
    SteensAnswers += St.SteensgaardAnswers;
  }
  EXPECT_GT(SteensAnswers, 0u);
}

//===--------------------------------------------------------------------===//
// Index, LRU, and cache adoption
//===--------------------------------------------------------------------===//

TEST(QueryIndex, CrossClusterPairsNeverMaterializeAnything) {
  std::shared_ptr<ir::Program> P = makeProgram(3);
  ASSERT_TRUE(P != nullptr);
  core::BootstrapOptions BOpts;
  BOpts.AndersenThreshold = 4;
  auto Snap = buildSnapshot(P, BOpts, QueryOptions());

  // Collect pairs sharing no cluster and query only those.
  std::vector<ir::VarId> Ptrs = pointerVars(*P);
  size_t CrossPairs = 0;
  for (size_t I = 0; I < Ptrs.size(); ++I)
    for (size_t J = I + 1; J < Ptrs.size(); ++J) {
      const auto &CA = Snap->clustersOf(Ptrs[I]);
      const auto &CB = Snap->clustersOf(Ptrs[J]);
      std::vector<uint32_t> Shared;
      std::set_intersection(CA.begin(), CA.end(), CB.begin(), CB.end(),
                            std::back_inserter(Shared));
      if (!Shared.empty())
        continue;
      ++CrossPairs;
      AliasAnswer Ans = Snap->mayAlias(Ptrs[I], Ptrs[J]);
      EXPECT_FALSE(Ans.MayAlias);
      EXPECT_EQ(Ans.Source, AnswerSource::Index);
    }
  ASSERT_GT(CrossPairs, 0u) << "generator produced a single-cluster cover";
  query::SnapshotStats St = Snap->stats();
  EXPECT_EQ(St.Materializations, 0u)
      << "index-answerable queries touched FSCS data";
  EXPECT_EQ(St.IndexAnswers, CrossPairs);
}

TEST(QueryLru, CapOfOneStillAnswersExactlyAndEvicts) {
  std::shared_ptr<ir::Program> P = makeProgram(5);
  ASSERT_TRUE(P != nullptr);
  core::BootstrapOptions BOpts;
  BOpts.AndersenThreshold = 2; // Many small clusters.
  QueryOptions Tiny;
  Tiny.MaxMaterializedClusters = 1;
  auto Capped = buildSnapshot(P, BOpts, Tiny);
  auto Roomy = buildSnapshot(P, BOpts, QueryOptions());

  std::vector<ir::VarId> Ptrs = pointerVars(*P);
  for (size_t I = 0; I < Ptrs.size(); ++I)
    for (size_t J = I + 1; J < Ptrs.size(); ++J) {
      AliasAnswer A = Capped->mayAlias(Ptrs[I], Ptrs[J]);
      AliasAnswer B = Roomy->mayAlias(Ptrs[I], Ptrs[J]);
      EXPECT_EQ(A.MayAlias, B.MayAlias);
    }

  query::SnapshotStats St = Capped->stats();
  EXPECT_LE(St.Resident, 1u);
  ASSERT_GT(Roomy->stats().Resident, 1u)
      << "cover too small for the eviction test to mean anything";
  EXPECT_GT(St.Evictions, 0u);
  EXPECT_GT(St.Materializations, St.Resident);
}

/// Queries every pointer pair of \p Snap's program, so every cluster
/// that serves a pair gets materialized at least once.
void touchAllPairs(const QuerySnapshot &Snap) {
  std::vector<ir::VarId> Ptrs = pointerVars(Snap.program());
  for (size_t I = 0; I < Ptrs.size(); ++I)
    for (size_t J = I + 1; J < Ptrs.size(); ++J)
      (void)Snap.mayAlias(Ptrs[I], Ptrs[J]);
}

/// The serving invariant: a snapshot built over a cascade that ran
/// with a summary cache finds that cascade's run for every cluster it
/// materializes. The cache never evicts and flagged clusters go to the
/// fallback chain before they materialize, so no materialization ever
/// has to run the dovetail from scratch.
void expectEveryMaterializationAdopts(const QuerySnapshot &Snap) {
  query::SnapshotStats St = Snap.stats();
  EXPECT_GT(St.Materializations, 0u);
  EXPECT_EQ(St.CacheAdoptions, St.Materializations);
}

TEST(QueryCache, MaterializationAdoptsTheCascadesSummaryRuns) {
  // One-shot cascades over several programs.
  for (uint64_t Seed : {7u, 13u, 29u, 41u, 58u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::shared_ptr<ir::Program> P = makeProgram(Seed);
    ASSERT_TRUE(P != nullptr);
    core::BootstrapOptions BOpts;
    BOpts.AndersenThreshold = 4;
    BOpts.SummaryCache = std::make_shared<fscs::SummaryCache>();
    auto Snap = buildSnapshot(P, BOpts, QueryOptions());
    touchAllPairs(*Snap);
    expectEveryMaterializationAdopts(*Snap);
  }

  workload::GeneratorConfig Cfg;
  Cfg.Seed = 21;
  Cfg.NumFunctions = 6;
  Cfg.StmtsPerFunction = 8;
  Cfg.Communities = 3;
  Cfg.LocalsPerFunction = 2;
  Cfg.RecursionPercent = 10;
  auto Compile = [&Cfg](const workload::EditState &State) {
    frontend::Diagnostics Diags;
    std::unique_ptr<ir::Program> P =
        frontend::compileString(workload::generateProgram(Cfg, State), Diags);
    EXPECT_TRUE(P != nullptr) << Diags.toString();
    return P;
  };

  {
    // An edit stream through AliasService with room for one resident
    // cluster: every snapshot evicts and re-materializes, and each
    // re-materialization adopts again.
    SCOPED_TRACE("edit stream");
    core::BootstrapOptions BOpts;
    BOpts.AndersenThreshold = 2;
    QueryOptions Tiny;
    Tiny.MaxMaterializedClusters = 1;
    query::AliasService Service(BOpts, Tiny);
    workload::EditState State = workload::initialEditState(Cfg);
    Service.update(Compile(State));
    uint64_t Evictions = 0;
    auto Check = [&] {
      std::shared_ptr<const QuerySnapshot> Snap = Service.engine().snapshot();
      touchAllPairs(*Snap);
      touchAllPairs(*Snap);
      expectEveryMaterializationAdopts(*Snap);
      Evictions += Snap->stats().Evictions;
    };
    Check();
    for (const workload::ProgramEdit &E :
         workload::generateEditStream(Cfg, 4, /*StreamSeed=*/17)) {
      workload::applyEdit(State, E);
      Service.update(Compile(State));
      Check();
    }
    EXPECT_GT(Evictions, 0u) << "the cap never forced a re-materialization";
  }

  {
    // A registry reopened over a persistent store: the second lifetime
    // revives its runs from disk and serves from them.
    SCOPED_TRACE("reopened store");
    std::string Dir =
        (std::filesystem::temp_directory_path() / "bsaa_adopt_XXXXXX")
            .string();
    ASSERT_NE(::mkdtemp(Dir.data()), nullptr);
    serving::ServingOptions SOpts;
    SOpts.BOpts.AndersenThreshold = 4;
    SOpts.BOpts.StorePath = Dir;
    workload::EditState State = workload::initialEditState(Cfg);
    for (int Lifetime = 0; Lifetime < 2; ++Lifetime) {
      serving::TenantRegistry Reg(SOpts);
      serving::TenantId T = Reg.addTenant("adopt");
      ASSERT_EQ(Reg.submitEdit(T, Compile(State)),
                serving::SubmitStatus::Accepted);
      Reg.waitIdle();
      ASSERT_TRUE(Reg.ready(T));
      touchAllPairs(*Reg.snapshot(T));
      expectEveryMaterializationAdopts(*Reg.snapshot(T));
      if (Lifetime == 1) {
        EXPECT_GT(Reg.service(T)
                      .driver()
                      .options()
                      .SummaryCache->counters()
                      .StoreHits,
                  0u)
            << "the reopened registry revived nothing from the store";
      }
    }
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }
}

//===--------------------------------------------------------------------===//
// pointsToAt id validation (regression)
//===--------------------------------------------------------------------===//

TEST(QueryValidation, PointsToAtDistinguishesUnknownIdFromNonPointer) {
  std::shared_ptr<ir::Program> P = makeProgram(3);
  ASSERT_TRUE(P != nullptr);
  core::BootstrapOptions BOpts;
  BOpts.AndersenThreshold = 4;
  auto Snap = buildSnapshot(P, BOpts, QueryOptions());

  // An id past the variable table is *unknown*: claiming a complete
  // empty points-to set for it would let a client erase real aliases.
  PointsToAnswer Unknown =
      Snap->pointsToAt(static_cast<ir::VarId>(P->numVars() + 7), 0);
  EXPECT_TRUE(Unknown.Objects.empty());
  EXPECT_FALSE(Unknown.Complete)
      << "out-of-range ids must not produce a confident empty answer";
  EXPECT_EQ(Unknown.Source, AnswerSource::Index);

  // A known non-pointer definitively points to nothing.
  ir::VarId NonPtr = ir::InvalidVar;
  for (ir::VarId V = 0; V < P->numVars(); ++V)
    if (!P->var(V).isPointer()) {
      NonPtr = V;
      break;
    }
  ASSERT_NE(NonPtr, ir::InvalidVar) << "generator produced no scalar";
  PointsToAnswer Scalar = Snap->pointsToAt(NonPtr, 0);
  EXPECT_TRUE(Scalar.Objects.empty());
  EXPECT_TRUE(Scalar.Complete);
}

//===--------------------------------------------------------------------===//
// Batched evaluation
//===--------------------------------------------------------------------===//

TEST(QueryBatch, BatchMatchesSingleQueries) {
  std::shared_ptr<ir::Program> P = makeProgram(11);
  ASSERT_TRUE(P != nullptr);
  core::BootstrapOptions BOpts;
  BOpts.AndersenThreshold = 4;
  query::QueryEngine Engine;
  Engine.publish(buildSnapshot(P, BOpts, QueryOptions()));

  std::vector<query::MayAliasQuery> Batch;
  std::vector<ir::VarId> Ptrs = pointerVars(*P);
  for (size_t I = 0; I < Ptrs.size(); ++I)
    for (size_t J = I + 1; J < Ptrs.size(); ++J)
      Batch.push_back({Ptrs[I], Ptrs[J], ir::InvalidLoc});
  ASSERT_FALSE(Batch.empty());

  std::vector<uint8_t> Verdicts = Engine.evalMayAlias(Batch);
  ASSERT_EQ(Verdicts.size(), Batch.size());
  for (size_t I = 0; I < Batch.size(); ++I)
    EXPECT_EQ(Verdicts[I] != 0,
              Engine.mayAlias(Batch[I].A, Batch[I].B).MayAlias);
}

//===--------------------------------------------------------------------===//
// Snapshot swaps under concurrency
//===--------------------------------------------------------------------===//

// Readers hammer the engine while the service commits one program edit
// after another. Each reader pins a snapshot per iteration and must see
// a fully consistent version (its own program, cover, index); the
// publishes must never block or tear. TSan (-DBSAA_TSAN=ON) turns this
// into a real data-race check.
TEST(QueryConcurrency, ReadersKeepAnsweringAcrossSnapshotSwaps) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = 21;
  Cfg.NumFunctions = 6;
  Cfg.StmtsPerFunction = 8;
  Cfg.Communities = 3;
  Cfg.LocalsPerFunction = 2;
  Cfg.RecursionPercent = 10;

  core::BootstrapOptions BOpts;
  BOpts.AndersenThreshold = 4;
  BOpts.Threads = 2;
  query::AliasService Service(BOpts);

  auto CompileVersion = [&](const workload::EditState &State) {
    frontend::Diagnostics Diags;
    std::unique_ptr<ir::Program> P =
        frontend::compileString(workload::generateProgram(Cfg, State), Diags);
    EXPECT_TRUE(P != nullptr) << Diags.toString();
    return P;
  };

  workload::EditState State = workload::initialEditState(Cfg);
  Service.update(CompileVersion(State));
  ASSERT_TRUE(Service.engine().hasSnapshot());

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> QueriesServed{0};
  std::vector<std::thread> Readers;
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&, R] {
      uint64_t Rng = 0x9E3779B97F4A7C15ull * (R + 1);
      auto Next = [&Rng] {
        Rng ^= Rng << 13;
        Rng ^= Rng >> 7;
        Rng ^= Rng << 17;
        return Rng;
      };
      while (!Stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const QuerySnapshot> S =
            Service.engine().snapshot();
        // Queries must use ids of the *pinned* snapshot's program:
        // versions differ in numVars, which is the point of pinning.
        const ir::Program &P = S->program();
        ir::VarId A = static_cast<ir::VarId>(Next() % P.numVars());
        ir::VarId B = static_cast<ir::VarId>(Next() % P.numVars());
        (void)S->mayAlias(A, B);
        if (P.var(A).isPointer())
          (void)S->pointsToAt(A, query::canonicalAliasLoc(P, A, A));
        QueriesServed.fetch_add(1, std::memory_order_relaxed);
      }
    });

  std::vector<workload::ProgramEdit> Edits =
      workload::generateEditStream(Cfg, 6, /*StreamSeed=*/99);
  for (const workload::ProgramEdit &E : Edits) {
    workload::applyEdit(State, E);
    Service.update(CompileVersion(State));
  }

  Stop.store(true);
  for (std::thread &T : Readers)
    T.join();
  EXPECT_GT(QueriesServed.load(), 0u);

  // The final published snapshot serves the final program version.
  std::shared_ptr<const QuerySnapshot> Final = Service.engine().snapshot();
  EXPECT_EQ(&Final->program(), &Service.driver().program());
}

// A snapshot borrows its version's solve from the driver and co-owns
// it. Held across two later updates, it answers first touches --
// materializations against the retired call graph and Steensgaard
// solve -- exactly like a fresh snapshot over the same version. ASan
// turns a snapshot that did not keep its solve alive into a failure.
TEST(QueryLifetime, HeldSnapshotOutlivesLaterUpdatesAndBorrowsTheSolve) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = 33;
  Cfg.NumFunctions = 6;
  Cfg.StmtsPerFunction = 8;
  Cfg.Communities = 3;
  Cfg.LocalsPerFunction = 2;
  core::BootstrapOptions BOpts;
  BOpts.AndersenThreshold = 4;
  auto Compile = [](const std::string &Src) {
    frontend::Diagnostics Diags;
    std::unique_ptr<ir::Program> P = frontend::compileString(Src, Diags);
    EXPECT_TRUE(P != nullptr) << Diags.toString();
    return P;
  };

  workload::EditState State = workload::initialEditState(Cfg);
  const std::string Src0 = workload::generateProgram(Cfg, State);
  query::AliasService Service(BOpts);
  Service.update(Compile(Src0));
  std::shared_ptr<const QuerySnapshot> Held = Service.engine().snapshot();
  {
    // The snapshot reads the driver's own objects, not copies.
    const core::SolvedCover &Solved = *Service.driver().lastCover();
    EXPECT_EQ(&Held->steensgaard(), Solved.Steens.get());
    EXPECT_EQ(&Held->callGraph(), Solved.CG.get());
    EXPECT_EQ(&Held->cover(), &Solved.Clusters);
  }

  for (const workload::ProgramEdit &E :
       workload::generateEditStream(Cfg, 2, /*StreamSeed=*/5)) {
    workload::applyEdit(State, E);
    Service.update(Compile(workload::generateProgram(Cfg, State)));
  }
  const core::SolvedCover &Now = *Service.driver().lastCover();
  EXPECT_NE(&Held->steensgaard(), Now.Steens.get());
  std::shared_ptr<const QuerySnapshot> Current = Service.engine().snapshot();
  EXPECT_EQ(&Current->steensgaard(), Now.Steens.get());
  EXPECT_EQ(&Current->callGraph(), Now.CG.get());

  // Nobody has queried the held snapshot: every touch below is a first
  // touch. The reference is a fresh service over the same version.
  ASSERT_EQ(Held->stats().Materializations, 0u);
  query::AliasService Fresh(BOpts);
  Fresh.update(Compile(Src0));
  std::shared_ptr<const QuerySnapshot> Ref = Fresh.engine().snapshot();
  const ir::Program &P = Held->program();
  ASSERT_EQ(P.numVars(), Ref->program().numVars());
  uint64_t Compared = 0;
  for (const core::Cluster &C : Held->cover()) {
    std::vector<ir::VarId> Ptrs;
    for (ir::VarId V : C.Members)
      if (P.var(V).isPointer())
        Ptrs.push_back(V);
    for (ir::VarId A : Ptrs) {
      ir::LocId Loc = query::canonicalAliasLoc(P, A, A);
      if (Loc == ir::InvalidLoc)
        continue;
      PointsToAnswer Got = Held->pointsToAt(A, Loc);
      PointsToAnswer Want = Ref->pointsToAt(A, Loc);
      EXPECT_EQ(Got.Objects, Want.Objects) << "var " << A;
      EXPECT_EQ(Got.Source, Want.Source) << "var " << A;
      EXPECT_EQ(Got.Complete, Want.Complete) << "var " << A;
      for (ir::VarId B : Ptrs) {
        AliasAnswer GotA = Held->mayAlias(A, B);
        AliasAnswer WantA = Ref->mayAlias(A, B);
        EXPECT_EQ(GotA.MayAlias, WantA.MayAlias) << A << " vs " << B;
        EXPECT_EQ(GotA.Source, WantA.Source) << A << " vs " << B;
        ++Compared;
      }
    }
  }
  EXPECT_GT(Compared, 0u);
  EXPECT_GT(Held->stats().Materializations, 0u);
}

//===--------------------------------------------------------------------===//
// Answer memo: served answers are byte-identical to re-walks
//===--------------------------------------------------------------------===//

/// One query of a replayable sequence: pointsToAt when B is
/// InvalidVar, mayAliasAt otherwise.
struct MemoQuery {
  ir::VarId A = ir::InvalidVar;
  ir::VarId B = ir::InvalidVar;
  ir::LocId Loc = ir::InvalidLoc;
};

/// Every field of every answer of \p Qs on \p Snap, flattened.
std::vector<std::vector<uint32_t>> answerAll(const QuerySnapshot &Snap,
                                             const std::vector<MemoQuery> &Qs) {
  std::vector<std::vector<uint32_t>> Out;
  for (const MemoQuery &Q : Qs) {
    if (Q.B == ir::InvalidVar) {
      PointsToAnswer A = Snap.pointsToAt(Q.A, Q.Loc);
      std::vector<uint32_t> Row(A.Objects.begin(), A.Objects.end());
      Row.push_back(static_cast<uint32_t>(A.Source));
      Row.push_back(A.Complete);
      Out.push_back(std::move(Row));
    } else {
      AliasAnswer A = Snap.mayAliasAt(Q.A, Q.B, Q.Loc);
      Out.push_back({A.MayAlias, static_cast<uint32_t>(A.Source)});
    }
  }
  return Out;
}

// For 50 seeds: a random sequence Q queried twice on one snapshot (the
// second pass mostly from the memo, with every entry a later walk made
// stale re-walked) equals a fresh snapshot queried once. Every third
// seed adopts the cascade's cached runs. (No step budget: a budgeted
// engine's answers depend on its query history by design, so only a
// re-walk, not a fresh snapshot, is the oracle there -- the targeted
// test below covers the BudgetHit flip.)
TEST(QueryMemo, RepeatedSequenceMatchesFreshSnapshotOn50Seeds) {
  uint64_t Pass1Walks = 0, Pass2Walks = 0;
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::shared_ptr<ir::Program> P = makeProgram(Seed);
    ASSERT_TRUE(P != nullptr);
    core::BootstrapOptions BOpts;
    BOpts.AndersenThreshold = 4;
    auto Build = [&] {
      core::BootstrapOptions B = BOpts;
      if (Seed % 3 == 0)
        B.SummaryCache = std::make_shared<fscs::SummaryCache>();
      return buildSnapshot(P, B, QueryOptions());
    };

    std::vector<ir::VarId> Ptrs = pointerVars(*P);
    ASSERT_FALSE(Ptrs.empty());
    uint64_t Rng = 0x9E3779B97F4A7C15ull * Seed;
    auto Next = [&Rng] {
      Rng ^= Rng << 13;
      Rng ^= Rng >> 7;
      Rng ^= Rng << 17;
      return Rng;
    };
    std::vector<MemoQuery> Qs(300);
    for (MemoQuery &Q : Qs) {
      Q.A = Ptrs[Next() % Ptrs.size()];
      if (Next() % 4 != 0)
        Q.B = Ptrs[Next() % Ptrs.size()];
      // Mostly canonical locations (repeats hit the memo), sometimes
      // any location (new walks make earlier memo entries stale).
      Q.Loc = Next() % 3 == 0
                  ? static_cast<ir::LocId>(Next() % P->numLocs())
                  : query::canonicalAliasLoc(
                        *P, Q.A, Q.B == ir::InvalidVar ? Q.A : Q.B);
    }

    auto Snap = Build();
    auto First = answerAll(*Snap, Qs);
    uint64_t W1 = Snap->stats().Walks;
    auto Second = answerAll(*Snap, Qs);
    Pass1Walks += W1;
    Pass2Walks += Snap->stats().Walks - W1;
    auto Fresh = answerAll(*Build(), Qs);
    EXPECT_EQ(First, Fresh);
    EXPECT_EQ(Second, Fresh);
  }
  // Non-vacuity: the sequences walked, and the second passes were
  // served mostly from the memo.
  EXPECT_GT(Pass1Walks, 0u);
  EXPECT_LT(Pass2Walks, Pass1Walks);
}

// A memo entry made stale by a later walk -- one that creates summary
// keys, an FSCI memo entry, or exhausts the step budget -- is re-walked,
// never served.
TEST(QueryMemo, StaleEntryIsReWalkedNotServed) {
  std::shared_ptr<ir::Program> P = makeProgram(3);
  ASSERT_TRUE(P != nullptr);
  analysis::SteensgaardAnalysis Steens(*P);
  Steens.run();
  ir::CallGraph CG(*P);
  core::Cluster Whole = core::wholeProgramCluster(*P);
  std::vector<ir::VarId> Ptrs = pointerVars(*P);
  ASSERT_FALSE(Ptrs.empty());

  // The calls made on the analysis under test, replayed on a fresh one
  // at the end: pointsTo when Fsci is false, fsciPointsTo otherwise.
  struct Call {
    ir::VarId V;
    ir::LocId Loc;
    bool Fsci;
  };
  std::vector<Call> Calls;
  fscs::ClusterAliasAnalysis AA(*P, CG, Steens, Whole);
  AA.prepare();
  auto PointsTo = [&](ir::VarId V, ir::LocId Loc) {
    Calls.push_back({V, Loc, false});
    return AA.pointsTo(V, Loc);
  };

  ir::VarId V0 = Ptrs[0];
  ir::LocId L0 = query::canonicalAliasLoc(*P, V0, V0);
  ASSERT_NE(L0, ir::InvalidLoc);
  PointsTo(V0, L0);
  PointsTo(V0, L0);
  uint64_t W = AA.numWalks();
  PointsTo(V0, L0);
  ASSERT_EQ(AA.numWalks(), W) << "a repeated walk was not memoized";

  // Case 1: a walk elsewhere creates summary keys.
  bool Bumped = false;
  for (ir::LocId L = 0; L < P->numLocs() && !Bumped; ++L)
    for (ir::VarId V : Ptrs) {
      uint64_t Before = AA.engine().version();
      PointsTo(V, L);
      if (AA.engine().version() != Before) {
        Bumped = true;
        break;
      }
    }
  ASSERT_TRUE(Bumped) << "no walk changed the engine";
  W = AA.numWalks();
  PointsTo(V0, L0);
  EXPECT_EQ(AA.numWalks(), W + 1) << "stale answer served after new keys";
  PointsTo(V0, L0);

  // Case 2: a new FSCI memo entry.
  Bumped = false;
  for (ir::LocId L = 0; L < P->numLocs() && !Bumped; ++L)
    for (ir::VarId V : Ptrs) {
      uint64_t Before = AA.engine().version();
      Calls.push_back({V, L, true});
      (void)AA.engine().fsciPointsTo(V, L);
      if (AA.engine().version() != Before) {
        Bumped = true;
        break;
      }
    }
  ASSERT_TRUE(Bumped) << "no FSCI query added a memo entry";
  W = AA.numWalks();
  fscs::ClusterAliasAnalysis::PointsToResult Final = PointsTo(V0, L0);
  EXPECT_EQ(AA.numWalks(), W + 1) << "stale answer served after FSCI insert";

  // The whole history replayed on a fresh analysis gives the same final
  // answer.
  fscs::ClusterAliasAnalysis Ref(*P, CG, Steens, Whole);
  Ref.prepare();
  fscs::ClusterAliasAnalysis::PointsToResult Expected;
  for (const Call &C : Calls) {
    if (C.Fsci)
      (void)Ref.engine().fsciPointsTo(C.V, C.Loc);
    else
      Expected = Ref.pointsTo(C.V, C.Loc);
  }
  EXPECT_EQ(Final.Objects, Expected.Objects);
  EXPECT_EQ(Final.Complete, Expected.Complete);

  // Case 3: the step budget runs out. A budget one step above what the
  // warmup plus the (V0, L0) walk need lets both finish exactly as
  // unbudgeted; the first walk that needs more traversal steps then
  // flips BudgetHit.
  fscs::SummaryEngine::Options Tight;
  {
    fscs::ClusterAliasAnalysis Probe(*P, CG, Steens, Whole);
    Probe.prepare();
    Probe.pointsTo(V0, L0);
    Tight.StepBudget = Probe.engine().stepsUsed() + 1;
  }
  fscs::ClusterAliasAnalysis Budgeted(*P, CG, Steens, Whole, Tight);
  Budgeted.prepare();
  ASSERT_FALSE(Budgeted.engine().budgetExhausted());
  Budgeted.pointsTo(V0, L0);
  Budgeted.pointsTo(V0, L0);
  ASSERT_TRUE(Budgeted.pointsTo(V0, L0).Complete);
  for (ir::LocId L = 0; L < P->numLocs(); ++L)
    for (ir::VarId V : Ptrs)
      if (!Budgeted.engine().budgetExhausted())
        Budgeted.pointsTo(V, L);
  ASSERT_TRUE(Budgeted.engine().budgetExhausted())
      << "no walk exhausted the budget";
  W = Budgeted.numWalks();
  EXPECT_FALSE(Budgeted.pointsTo(V0, L0).Complete)
      << "complete answer served after the budget ran out";
  EXPECT_EQ(Budgeted.numWalks(), W + 1);
}

//===--------------------------------------------------------------------===//
// Reader slots: retired snapshots outlive exactly their readers
//===--------------------------------------------------------------------===//

TEST(QueryEngineSlots, RetiredSnapshotLivesUntilItsReaderExits) {
  std::shared_ptr<ir::Program> P = makeProgram(2);
  ASSERT_TRUE(P != nullptr);
  core::BootstrapOptions BOpts;
  query::QueryEngine Engine;
  std::shared_ptr<const QuerySnapshot> First =
      buildSnapshot(P, BOpts, QueryOptions());
  std::weak_ptr<const QuerySnapshot> FirstWeak = First;
  Engine.publish(std::move(First));

  std::atomic<int> Phase{0};
  const QuerySnapshot *Seen = nullptr;
  const QuerySnapshot *NestedSeen = nullptr;
  std::thread Reader([&] {
    Engine.read([&](const QuerySnapshot *S) {
      Seen = S;
      Phase.store(1);
      while (Phase.load() != 2)
        std::this_thread::yield();
      // A nested read pins the newer snapshot inside the outer pin.
      Engine.read([&](const QuerySnapshot *N) { NestedSeen = N; });
      return 0;
    });
  });
  while (Phase.load() != 1)
    std::this_thread::yield();

  Engine.publish(buildSnapshot(P, BOpts, QueryOptions()));
  EXPECT_FALSE(FirstWeak.expired()) << "released under an active reader";
  (void)Engine.snapshot();
  EXPECT_FALSE(FirstWeak.expired());
  Phase.store(2);
  Reader.join();

  EXPECT_EQ(Seen, FirstWeak.lock().get());
  EXPECT_EQ(NestedSeen, Engine.snapshot().get());
  // snapshot() above reclaimed the first owner once the reader exited.
  EXPECT_TRUE(FirstWeak.expired());
}

} // namespace
