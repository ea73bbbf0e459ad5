//===- tests/test_demand.cpp - Demand-driven cold-cluster serving ---------===//
//
// The demand-mode (cold -> partial -> full) differential artillery:
//
//  * a 100-seed oracle: every DemandMode mayAlias verdict equals the
//    eager snapshot's verdict over the same cascade products -- only
//    provenance (fscs-partial vs fscs) may differ;
//  * partial pointsToAt answers are sound under-approximations: subsets
//    of the eager answer, never marked complete;
//  * background promotion: once the promotion pool drains, re-issued
//    answers are identical -- verdict, provenance, completeness -- to a
//    snapshot that was never partial;
//  * the pointsToAt id-validation regression: an out-of-range VarId is
//    "unknown", never a confident empty points-to set, while a known
//    non-pointer stays a definitive one.
//
//===----------------------------------------------------------------------===//

#include "query/QueryEngine.h"

#include "core/AliasCover.h"
#include "core/BootstrapDriver.h"
#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "support/ThreadPool.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
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

/// One cascade run, two serving views of it: an eager snapshot and a
/// demand-mode snapshot over one solve, cover and set of run results.
struct SnapshotPair {
  std::shared_ptr<const QuerySnapshot> Eager;
  std::shared_ptr<const QuerySnapshot> Demand;
};

SnapshotPair buildPair(std::shared_ptr<const ir::Program> P,
                       std::shared_ptr<ThreadPool> PromotionPool) {
  core::BootstrapOptions BOpts;
  BOpts.AndersenThreshold = 4;
  BOpts.EngineOpts.StepBudget = 20000;
  core::BootstrapDriver Driver(*P, BOpts);
  std::shared_ptr<const core::SolvedCover> Solved = Driver.buildSolvedCover();
  core::BootstrapResult Result = Driver.runAll(Solved->Clusters);

  QueryOptions Eager;
  Eager.EngineOpts = BOpts.EngineOpts;
  QueryOptions Demand = Eager;
  Demand.DemandMode = true;
  Demand.PromotionPool = std::move(PromotionPool);

  SnapshotPair Pair;
  Pair.Eager =
      QuerySnapshot::build(P, Solved, &Result.Clusters, Eager, nullptr);
  Pair.Demand = QuerySnapshot::build(std::move(P), std::move(Solved),
                                     &Result.Clusters, Demand, nullptr);
  return Pair;
}

std::vector<ir::VarId> pointerVars(const ir::Program &P) {
  std::vector<ir::VarId> Ptrs;
  for (ir::VarId V = 0; V < P.numVars(); ++V)
    if (P.var(V).isPointer())
      Ptrs.push_back(V);
  return Ptrs;
}

bool isSubset(const std::vector<ir::VarId> &Small,
              const std::vector<ir::VarId> &Big) {
  return std::includes(Big.begin(), Big.end(), Small.begin(), Small.end());
}

} // namespace

//===--------------------------------------------------------------------===//
// The 100-seed demand-vs-eager verdict oracle
//===--------------------------------------------------------------------===//

TEST(Demand, VerdictsMatchEagerAcrossSeeds) {
  uint64_t PartialAnswers = 0;
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    std::shared_ptr<ir::Program> P = makeProgram(Seed);
    ASSERT_TRUE(P);
    // No promotion pool: partial entries stay partial, so the sweep
    // exercises the definite-only serving path as hard as possible (a
    // pool would promote after the first answer and hide it).
    SnapshotPair Pair = buildPair(P, nullptr);

    std::vector<ir::VarId> Ptrs = pointerVars(*P);
    for (size_t I = 0; I < Ptrs.size(); ++I)
      for (size_t J = I + 1; J < Ptrs.size(); ++J) {
        AliasAnswer E = Pair.Eager->mayAlias(Ptrs[I], Ptrs[J]);
        AliasAnswer D = Pair.Demand->mayAlias(Ptrs[I], Ptrs[J]);
        ASSERT_EQ(E.MayAlias, D.MayAlias)
            << "seed " << Seed << " vars " << Ptrs[I] << "," << Ptrs[J]
            << " eager=" << query::answerSourceName(E.Source)
            << " demand=" << query::answerSourceName(D.Source);
        // Provenance may legitimately differ only by the partial tag.
        if (D.Source == AnswerSource::FscsPartial)
          EXPECT_TRUE(D.MayAlias)
              << "partial provenance is definite-yes only (seed " << Seed
              << ")";
        else
          EXPECT_EQ(E.Source, D.Source) << "seed " << Seed;
      }
    PartialAnswers += Pair.Demand->stats().FscsPartialAnswers;
  }
  EXPECT_GT(PartialAnswers, 0u)
      << "the sweep never hit the partial fast path -- the oracle "
         "passed vacuously";
}

//===--------------------------------------------------------------------===//
// Partial pointsToAt: sound under-approximation
//===--------------------------------------------------------------------===//

TEST(Demand, PartialPointsToIsSubsetAndNeverComplete) {
  uint64_t PartialServed = 0;
  for (uint64_t Seed : {2u, 11u, 29u, 47u, 83u}) {
    std::shared_ptr<ir::Program> P = makeProgram(Seed);
    ASSERT_TRUE(P);
    SnapshotPair Pair = buildPair(P, nullptr);

    for (ir::VarId V : pointerVars(*P))
      for (ir::LocId L = 0; L < P->numLocs(); L += 7) {
        PointsToAnswer E = Pair.Eager->pointsToAt(V, L);
        PointsToAnswer D = Pair.Demand->pointsToAt(V, L);
        EXPECT_TRUE(isSubset(D.Objects, E.Objects))
            << "seed " << Seed << " var " << V << " loc " << L;
        if (D.Source == AnswerSource::FscsPartial) {
          EXPECT_FALSE(D.Complete)
              << "a partial answer must never claim completeness (seed "
              << Seed << ")";
          ++PartialServed;
        }
      }
  }
  EXPECT_GT(PartialServed, 0u) << "no partial pointsToAt was ever served";
}

//===--------------------------------------------------------------------===//
// Background promotion: answers converge to the never-partial snapshot
//===--------------------------------------------------------------------===//

TEST(Demand, PostPromotionAnswersIdenticalToEager) {
  auto Pool = std::make_shared<ThreadPool>(2);
  for (uint64_t Seed : {5u, 23u, 61u}) {
    std::shared_ptr<ir::Program> P = makeProgram(Seed);
    ASSERT_TRUE(P);
    SnapshotPair Pair = buildPair(P, Pool);
    std::vector<ir::VarId> Ptrs = pointerVars(*P);

    // Phase 1: first touch of every cluster. pointsToAt on a cold
    // cluster always serves partially and schedules its promotion.
    for (ir::VarId V : Ptrs) {
      (void)Pair.Demand->pointsToAt(V, 0);
      for (ir::VarId W : Ptrs)
        if (V < W)
          (void)Pair.Demand->mayAlias(V, W);
    }
    Pair.Demand->waitPromotionsIdle();

    query::SnapshotStats St = Pair.Demand->stats();
    EXPECT_GT(St.PromotionsScheduled, 0u) << "seed " << Seed;
    EXPECT_EQ(St.PromotionsScheduled, St.PromotionsCompleted)
        << "seed " << Seed;
    EXPECT_EQ(St.PartialResident, 0u)
        << "every touched cluster must be Full after promotion (seed "
        << Seed << ")";

    // Phase 2: every answer -- verdict, provenance, completeness, the
    // full object set -- now matches the never-partial snapshot.
    for (ir::VarId V : Ptrs) {
      PointsToAnswer E = Pair.Eager->pointsToAt(V, 0);
      PointsToAnswer D = Pair.Demand->pointsToAt(V, 0);
      EXPECT_EQ(E.Objects, D.Objects) << "seed " << Seed << " var " << V;
      EXPECT_EQ(E.Source, D.Source) << "seed " << Seed << " var " << V;
      EXPECT_EQ(E.Complete, D.Complete) << "seed " << Seed << " var " << V;
      for (ir::VarId W : Ptrs) {
        if (V >= W)
          continue;
        AliasAnswer EA = Pair.Eager->mayAlias(V, W);
        AliasAnswer DA = Pair.Demand->mayAlias(V, W);
        EXPECT_EQ(EA.MayAlias, DA.MayAlias)
            << "seed " << Seed << " vars " << V << "," << W;
        EXPECT_EQ(EA.Source, DA.Source)
            << "seed " << Seed << " vars " << V << "," << W;
      }
    }
  }
}

//===--------------------------------------------------------------------===//
// pointsToAt id validation (regression)
//===--------------------------------------------------------------------===//

TEST(Demand, PointsToAtDistinguishesUnknownIdFromNonPointer) {
  std::shared_ptr<ir::Program> P = makeProgram(3);
  ASSERT_TRUE(P);
  SnapshotPair Pair = buildPair(P, nullptr);

  // An id past the variable table is *unknown*: claiming a complete
  // empty points-to set for it would let a client erase real aliases.
  PointsToAnswer Unknown =
      Pair.Eager->pointsToAt(static_cast<ir::VarId>(P->numVars() + 7), 0);
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
  PointsToAnswer Scalar = Pair.Eager->pointsToAt(NonPtr, 0);
  EXPECT_TRUE(Scalar.Objects.empty());
  EXPECT_TRUE(Scalar.Complete);

  // Demand mode takes the same validation path.
  PointsToAnswer DUnknown =
      Pair.Demand->pointsToAt(static_cast<ir::VarId>(P->numVars() + 7), 0);
  EXPECT_FALSE(DUnknown.Complete);
  EXPECT_TRUE(Pair.Demand->pointsToAt(NonPtr, 0).Complete);
}
