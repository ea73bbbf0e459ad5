//===- tests/test_serving_stress.cpp - Serving concurrency stress ---------===//
//
// TSan-targeted stress over serving/TenantRegistry.h: concurrent
// readers on one tenant while another tenant publishes continuously,
// edit submission under backpressure from several threads at once, and
// the registry's accounting invariants at the end of the storm:
//
//   submissions == accepted + coalesced + rejected     (per tenant)
//   applied     == accepted                            (after waitIdle)
//
// No torn snapshots: a reader's batch pins one snapshot, so its
// verdicts must be internally consistent (and sane 0/1 bytes) no matter
// how many publishes happen mid-batch. Single queries pin through the
// engine's lock-free reader slots while a publisher republishes and
// trims residency; their answers must match a cold snapshot, and every
// retired snapshot must be released once its readers are gone.
//
// This binary is ctest-labeled "stress": the CI TSan job runs it (full
// suite); the release/asan/ubsan jobs exclude it with `ctest -LE
// stress`.
//
//===----------------------------------------------------------------------===//

#include "serving/TenantRegistry.h"

#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace bsaa;

namespace {

std::unique_ptr<ir::Program>
compileVersion(const workload::GeneratorConfig &Cfg,
               const workload::EditState &St) {
  std::string Src = workload::generateProgram(Cfg, St);
  frontend::Diagnostics Diags;
  std::unique_ptr<ir::Program> P = frontend::compileString(Src, Diags);
  EXPECT_TRUE(P) << Diags.toString();
  return P;
}

workload::GeneratorConfig stressConfig(uint64_t Seed) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.NumFunctions = 8;
  Cfg.StmtsPerFunction = 10;
  Cfg.Communities = 4;
  Cfg.PointerFunctionPercent = 60;
  Cfg.WeightNoise = 20;
  Cfg.WeightCall = 4;
  Cfg.RecursionPercent = 0;
  Cfg.CrossCommunityBasisPoints = 0;
  return Cfg;
}

serving::ServingOptions stressOptions() {
  serving::ServingOptions SOpts;
  SOpts.BOpts.AndersenThreshold = 60;
  SOpts.BOpts.EngineOpts.StepBudget = 50000;
  SOpts.DrainThreads = 2;
  SOpts.EditQueueCapacity = 2; // Small: rejection paths must run hot.
  return SOpts;
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
// Readers on tenant A race publishes on tenant B (and on A itself)
//===--------------------------------------------------------------------===//

TEST(ServingStress, ConcurrentReadersSurviveContinuousPublishes) {
  workload::GeneratorConfig CfgA = stressConfig(900);
  workload::GeneratorConfig CfgB = stressConfig(901);

  serving::TenantRegistry Reg(stressOptions());
  serving::TenantId A = Reg.addTenant("readers");
  serving::TenantId B = Reg.addTenant("publisher");

  workload::EditState StA = workload::initialEditState(CfgA);
  ASSERT_EQ(Reg.submitEdit(A, compileVersion(CfgA, StA), "", 0),
            serving::SubmitStatus::Accepted);
  workload::EditState StB = workload::initialEditState(CfgB);
  ASSERT_EQ(Reg.submitEdit(B, compileVersion(CfgB, StB), "", 0),
            serving::SubmitStatus::Accepted);
  Reg.waitIdle();
  ASSERT_TRUE(Reg.ready(A));
  ASSERT_TRUE(Reg.ready(B));

  // Query ids below every version's numVars: mutate edits keep ids
  // stable, so version 0's pointer set stays valid throughout.
  std::vector<query::MayAliasQuery> Batch;
  {
    std::shared_ptr<const query::QuerySnapshot> S = Reg.snapshot(A);
    std::vector<ir::VarId> Ptrs;
    for (ir::VarId V = 0; V < S->program().numVars(); ++V)
      if (S->program().var(V).isPointer())
        Ptrs.push_back(V);
    for (size_t I = 0; I < Ptrs.size() && Batch.size() < 200; ++I)
      for (size_t J = I + 1; J < Ptrs.size() && Batch.size() < 200; ++J)
        Batch.push_back({Ptrs[I], Ptrs[J], ir::InvalidLoc});
  }

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> SubmittedB{0};

  // Publisher: mutate-edit tenant B as fast as admission control lets
  // it; every outcome (accepted / coalesced / rejected) is legal here.
  std::thread Publisher([&] {
    std::vector<workload::ProgramEdit> Edits =
        workload::generateEditStream(CfgB, 64, /*StreamSeed=*/5);
    workload::EditState St = workload::initialEditState(CfgB);
    uint64_t Tag = 1;
    for (const workload::ProgramEdit &E : Edits) {
      if (Stop.load(std::memory_order_relaxed))
        break;
      workload::applyEdit(St, E);
      (void)Reg.submitEdit(B, compileVersion(CfgB, St),
                           workload::editedFunctionName(E), Tag++);
      SubmittedB.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // A slower second stream on tenant A, so readers also race their own
  // tenant's publishes, not just a neighbor's.
  std::thread EditorA([&] {
    workload::EditState St = workload::initialEditState(CfgA);
    for (uint64_t Tag = 1; Tag <= 6; ++Tag) {
      if (Stop.load(std::memory_order_relaxed))
        break;
      workload::applyEdit(St, {workload::EditKind::Mutate, 2});
      (void)Reg.submitEdit(A, compileVersion(CfgA, St), "f2", Tag);
    }
  });

  std::vector<std::thread> Readers;
  std::atomic<uint64_t> BatchesRead{0};
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&] {
      // Start once B's publishes have: warm reads can otherwise finish
      // all their rounds before the publisher's first submission.
      while (SubmittedB.load(std::memory_order_relaxed) == 0)
        std::this_thread::yield();
      for (int Round = 0; Round < 40; ++Round) {
        std::vector<uint8_t> Verdicts = Reg.evalMayAlias(A, Batch);
        ASSERT_EQ(Verdicts.size(), Batch.size());
        for (uint8_t V : Verdicts)
          ASSERT_LE(V, 1u);
        BatchesRead.fetch_add(1, std::memory_order_relaxed);
      }
    });

  for (std::thread &R : Readers)
    R.join();
  Stop.store(true, std::memory_order_relaxed);
  Publisher.join();
  EditorA.join();
  Reg.waitIdle();

  EXPECT_EQ(BatchesRead.load(), 3u * 40u);
  EXPECT_GT(SubmittedB.load(), 0u);

  // Accounting closes exactly: every submission was accepted, coalesced
  // or rejected, and after waitIdle every accepted slot was analyzed.
  for (serving::TenantId T : {A, B}) {
    serving::TenantStats St = Reg.stats(T);
    EXPECT_EQ(St.QueueDepth, 0u);
    EXPECT_EQ(St.EditsApplied, St.EditsAccepted);
    if (T == B) {
      EXPECT_EQ(SubmittedB.load() + 1, // +1: the initial version.
                St.EditsAccepted + St.EditsCoalesced + St.EditsRejected);
    }
    // The analyzed-version tags are strictly increasing: drains never
    // reorder or replay a version.
    std::vector<uint64_t> Tags = Reg.appliedTags(T);
    for (size_t I = 1; I < Tags.size(); ++I)
      EXPECT_LT(Tags[I - 1], Tags[I]);
  }
}

//===--------------------------------------------------------------------===//
// Many submitters, one tenant: admission control under contention
//===--------------------------------------------------------------------===//

TEST(ServingStress, ParallelSubmittersAccountExactly) {
  workload::GeneratorConfig Cfg = stressConfig(902);

  serving::ServingOptions SOpts = stressOptions();
  serving::TenantRegistry Reg(SOpts);
  serving::TenantId T = Reg.addTenant("contended");
  workload::EditState St0 = workload::initialEditState(Cfg);
  ASSERT_EQ(Reg.submitEdit(T, compileVersion(Cfg, St0), "", 0),
            serving::SubmitStatus::Accepted);
  Reg.waitIdle();

  // Each submitter thread mutates its own function, so its versions
  // coalesce only with its own consecutive submissions. Distinct tags
  // per thread keep the applied stream auditable.
  constexpr int NumThreads = 4;
  constexpr int PerThread = 16;
  std::atomic<uint64_t> Accepted{0}, Coalesced{0}, Rejected{0};
  std::vector<std::thread> Submitters;
  for (int S = 0; S < NumThreads; ++S)
    Submitters.emplace_back([&, S] {
      workload::EditState St = workload::initialEditState(Cfg);
      uint32_t Fn = 1 + static_cast<uint32_t>(S);
      for (int I = 0; I < PerThread; ++I) {
        workload::applyEdit(St, {workload::EditKind::Mutate, Fn});
        uint64_t Tag = 1000 * (S + 1) + I;
        switch (Reg.submitEdit(T, compileVersion(Cfg, St),
                               numbered("f", Fn), Tag)) {
        case serving::SubmitStatus::Accepted:
          Accepted.fetch_add(1);
          break;
        case serving::SubmitStatus::Coalesced:
          Coalesced.fetch_add(1);
          break;
        case serving::SubmitStatus::RejectedQueueFull:
          Rejected.fetch_add(1);
          break;
        default:
          ADD_FAILURE() << "unexpected submit status";
        }
      }
    });
  for (std::thread &S : Submitters)
    S.join();
  Reg.waitIdle();

  EXPECT_EQ(Accepted.load() + Coalesced.load() + Rejected.load(),
            static_cast<uint64_t>(NumThreads) * PerThread);

  serving::TenantStats St = Reg.stats(T);
  EXPECT_EQ(St.EditsAccepted, Accepted.load() + 1); // +1: initial version.
  EXPECT_EQ(St.EditsCoalesced, Coalesced.load());
  EXPECT_EQ(St.EditsRejected, Rejected.load());
  EXPECT_EQ(St.EditsApplied, St.EditsAccepted);
  EXPECT_EQ(St.QueueDepth, 0u);
  EXPECT_EQ(Reg.appliedTags(T).size(), St.EditsApplied);
}

//===--------------------------------------------------------------------===//
// Lock-free single queries across republishes and residency trims
//===--------------------------------------------------------------------===//

TEST(ServingStress, SlotPinnedQueriesMatchColdAcrossPublishesAndTrims) {
  workload::GeneratorConfig Cfg = stressConfig(903);
  workload::EditState St = workload::initialEditState(Cfg);

  serving::ServingOptions SOpts = stressOptions();
  SOpts.AutoDrain = false; // The publisher drains on its own thread.
  serving::TenantRegistry Reg(SOpts);
  serving::TenantId T = Reg.addTenant("republished");
  ASSERT_EQ(Reg.submitEdit(T, compileVersion(Cfg, St)),
            serving::SubmitStatus::Accepted);
  Reg.drainNow(T);
  ASSERT_TRUE(Reg.ready(T));

  // Cold reference: a separate service over the same program.
  query::AliasService Cold(SOpts.BOpts);
  Cold.update(compileVersion(Cfg, St));
  std::shared_ptr<const query::QuerySnapshot> Ref = Cold.engine().snapshot();

  struct Q {
    ir::VarId A, B; ///< B == InvalidVar: pointsToAt(A).
    ir::LocId Loc;
  };
  std::vector<Q> Qs;
  {
    const ir::Program &P = Ref->program();
    std::vector<ir::VarId> Ptrs;
    for (ir::VarId V = 0; V < P.numVars(); ++V)
      if (P.var(V).isPointer())
        Ptrs.push_back(V);
    ASSERT_GE(Ptrs.size(), 2u);
    for (size_t I = 0; I < Ptrs.size() && Qs.size() < 120; ++I) {
      Qs.push_back({Ptrs[I], ir::InvalidVar,
                    query::canonicalAliasLoc(P, Ptrs[I], Ptrs[I])});
      for (size_t J = I + 1; J < Ptrs.size() && J < I + 4; ++J)
        Qs.push_back({Ptrs[I], Ptrs[J], ir::InvalidLoc});
    }
  }
  auto Answer = [](auto &&MayAlias, auto &&PointsTo, const Q &X) {
    if (X.B == ir::InvalidVar) {
      query::PointsToAnswer A = PointsTo(X.A, X.Loc);
      return std::make_tuple(A.Objects, int(A.Source), A.Complete);
    }
    query::AliasAnswer A = MayAlias(X.A, X.B);
    return std::make_tuple(std::vector<ir::VarId>(), int(A.Source),
                           A.MayAlias);
  };
  using Row = std::tuple<std::vector<ir::VarId>, int, bool>;
  std::vector<Row> Expected;
  for (const Q &X : Qs)
    Expected.push_back(Answer(
        [&](ir::VarId A, ir::VarId B) { return Ref->mayAlias(A, B); },
        [&](ir::VarId V, ir::LocId L) { return Ref->pointsToAt(V, L); }, X));

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Mismatches{0};
  std::atomic<uint64_t> Publishes{0};
  std::vector<std::thread> Readers;
  for (int R = 0; R < 4; ++R)
    Readers.emplace_back([&, R] {
      // At least 6 rounds, and on until 8 republishes raced the reads.
      for (int Round = 0; Round < 6 || Publishes.load() < 8; ++Round)
        for (size_t I = R; I < Qs.size() + R; ++I) {
          size_t K = I % Qs.size();
          Row Got = Answer(
              [&](ir::VarId A, ir::VarId B) { return Reg.mayAlias(T, A, B); },
              [&](ir::VarId V, ir::LocId L) {
                return Reg.pointsToAt(T, V, L);
              },
              Qs[K]);
          if (Got != Expected[K])
            Mismatches.fetch_add(1, std::memory_order_relaxed);
        }
    });

  // Publisher: republish the same program version and trim the served
  // snapshot to one resident cluster, over and over.
  std::vector<std::weak_ptr<const query::QuerySnapshot>> Published;
  std::thread Publisher([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      ASSERT_EQ(Reg.submitEdit(T, compileVersion(Cfg, St)),
                serving::SubmitStatus::Accepted);
      Reg.drainNow(T);
      std::shared_ptr<const query::QuerySnapshot> S = Reg.snapshot(T);
      Published.push_back(S);
      S->trimResident(1);
      Publishes.fetch_add(1);
    }
  });

  for (std::thread &R : Readers)
    R.join();
  Stop.store(true, std::memory_order_relaxed);
  Publisher.join();
  EXPECT_EQ(Mismatches.load(), 0u);
  EXPECT_GT(Published.size(), 0u);

  // One more publish after every reader exited releases every retired
  // snapshot: nothing pins them any more.
  ASSERT_EQ(Reg.submitEdit(T, compileVersion(Cfg, St)),
            serving::SubmitStatus::Accepted);
  Reg.drainNow(T);
  for (const std::weak_ptr<const query::QuerySnapshot> &W : Published)
    EXPECT_TRUE(W.expired());
}
