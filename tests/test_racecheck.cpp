//===- tests/test_racecheck.cpp - Race checker tests ----------------------===//
//
// The race-checking module's dedicated suite: lockset transfer/join
// units and verdict regressions (including the StepBudget and
// allocation-site soundness directions), the pinned verdicts of the
// former batch detector, the incremental RaceCheckEngine (differential
// oracle against cold services over 50-edit streams, facts-cache
// replay, stable warning IDs, report determinism), and the RaceReport
// primitives. Every check runs through RaceCheckService.
//
//===----------------------------------------------------------------------===//

#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "racecheck/RaceCheckEngine.h"
#include "racecheck/RaceReport.h"
#include "support/ContentHash.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>

using namespace bsaa;
using namespace bsaa::racecheck;

namespace {

std::unique_ptr<ir::Program> compileOk(const std::string &Src) {
  frontend::Diagnostics Diags;
  auto P = frontend::compileString(Src, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.toString();
  return P;
}

/// The editable incremental workload plus race-bearing lock sections.
workload::GeneratorConfig raceConfig(uint32_t NumFunctions, uint64_t Seed) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.NumFunctions = NumFunctions;
  Cfg.StmtsPerFunction = 10;
  Cfg.Communities = 4;
  Cfg.PointerFunctionPercent = 60;
  Cfg.WeightNoise = 20;
  Cfg.WeightCall = 4;
  Cfg.RecursionPercent = 0;
  Cfg.CrossCommunityBasisPoints = 0;
  Cfg.LockPointers = 3;
  Cfg.SharedVariables = 3;
  Cfg.LockDensity = 2;
  return Cfg;
}

core::BootstrapOptions baseOptions() {
  core::BootstrapOptions Opts;
  Opts.AndersenThreshold = 60;
  Opts.EngineOpts.StepBudget = 50000;
  return Opts;
}

/// The verdict set a cold batch run produces: a fresh service (fresh
/// driver, fresh caches, fresh engine) over the current version.
std::string coldReportJson(const workload::GeneratorConfig &Cfg,
                           const workload::EditState &St,
                           const core::BootstrapOptions &Opts) {
  RaceCheckService Cold(Opts);
  Cold.update(compileOk(workload::generateProgram(Cfg, St)));
  return toReportJson(*Cold.report());
}

/// The \p N-th (0-based, in LocId order) write to global \p Name.
ir::LocId nthWrite(const ir::Program &P, const std::string &Name,
                   uint32_t N) {
  ir::VarId V = P.findVariable(Name);
  EXPECT_NE(V, ir::InvalidVar);
  uint32_t Seen = 0;
  for (ir::LocId L = 0; L < P.numLocs(); ++L)
    if (P.loc(L).isPointerAssign() && P.loc(L).Lhs == V)
      if (Seen++ == N)
        return L;
  ADD_FAILURE() << "no write #" << N << " to " << Name;
  return ir::InvalidLoc;
}

/// Id-free coordinate of a location: owner name plus layout index.
std::string siteKey(const ir::Program &P, ir::LocId L) {
  const ir::Function &Fn = P.func(P.loc(L).Owner);
  for (uint32_t I = 0; I < Fn.Locations.size(); ++I)
    if (Fn.Locations[I] == L)
      return Fn.Name + ":" + std::to_string(I);
  ADD_FAILURE() << "location " << L << " not in its owner's layout";
  return "?";
}

std::string siteKey(const SiteVerdict &S) {
  return S.Func + ":" + std::to_string(S.LocalIdx);
}

/// Canonical id-free keys of the reported races: var plus the
/// orientation-free site pair.
std::set<std::string> raceKeys(const RaceReport &R) {
  std::set<std::string> Keys;
  for (const RaceWarning &W : R.Warnings) {
    std::string A = siteKey(*W.A), B = siteKey(*W.B);
    if (B < A)
      std::swap(A, B);
    Keys.insert(W.Var + "|" + A + "|" + B);
  }
  return Keys;
}

/// The lockset held on entry to the access at \p L, read from a
/// warning that carries the site (so the access must race with some
/// other one).
std::vector<std::string> locksetAt(const RaceReport &R, const ir::Program &P,
                                   ir::LocId L) {
  std::string Key = siteKey(P, L);
  for (const RaceWarning &W : R.Warnings)
    for (const SiteVerdict *S : {W.A.get(), W.B.get()})
      if (siteKey(*S) == Key)
        return S->Lockset;
  ADD_FAILURE() << "no warning carries site " << Key;
  return {};
}

std::vector<std::string> idsOf(const std::vector<RaceWarning> &Ws) {
  std::vector<std::string> Ids;
  for (const RaceWarning &W : Ws)
    Ids.push_back(W.Id);
  return Ids;
}

/// The engine's per-variable delta equals the whole-report ID-set
/// difference against the report it replaced (\p Prev, null before the
/// first check): the same IDs in the same order.
void expectDeltaIsReportDiff(const CheckReport &CR,
                             const std::shared_ptr<const RaceReport> &Prev,
                             const RaceReport &Now, const std::string &Where) {
  ReportDelta Want = diffReports(Prev ? *Prev : RaceReport(), Now);
  EXPECT_EQ(idsOf(CR.Delta.Added), idsOf(Want.Added)) << Where;
  EXPECT_EQ(idsOf(CR.Delta.Retracted), idsOf(Want.Retracted)) << Where;
  EXPECT_EQ(CR.Warnings, Now.Warnings.size()) << Where;
  EXPECT_EQ(CR.WarningsAdded, Want.Added.size()) << Where;
  EXPECT_EQ(CR.WarningsRetracted, Want.Retracted.size()) << Where;
}

} // namespace

//===--------------------------------------------------------------------===//
// Lockset transfer and join.
//===--------------------------------------------------------------------===//

TEST(Lockset, LockAddsUnlockRemoves) {
  RaceCheckService Svc(baseOptions());
  CheckReport CR = Svc.update(compileOk(R"(
    lock_t l;
    int shared;
    void main(void) {
      lock_t *p;
      p = &l;
      lock(p);
      shared = 1;
      unlock(p);
      shared = 2;
    }
  )"));
  const ir::Program &P = Svc.alias().driver().program();
  const RaceReport &R = *Svc.report();
  EXPECT_EQ(locksetAt(R, P, nthWrite(P, "shared", 0)),
            std::vector<std::string>{"l"});
  EXPECT_TRUE(locksetAt(R, P, nthWrite(P, "shared", 1)).empty());
  EXPECT_EQ(CR.UnresolvedLockSites, 0u);
}

TEST(Lockset, JoinIsIntersection) {
  // Diamond: one arm locks, the other does not; the join must drop the
  // lock (must-held = intersection over incoming paths).
  RaceCheckService Svc(baseOptions());
  Svc.update(compileOk(R"(
    lock_t l;
    int shared;
    void main(void) {
      lock_t *p;
      p = &l;
      if (nondet) {
        lock(p);
        shared = 1;
      } else {
        shared = 2;
      }
      shared = 3;
    }
  )"));
  const ir::Program &P = Svc.alias().driver().program();
  const RaceReport &R = *Svc.report();
  EXPECT_EQ(locksetAt(R, P, nthWrite(P, "shared", 0)),
            std::vector<std::string>{"l"});
  EXPECT_TRUE(locksetAt(R, P, nthWrite(P, "shared", 1)).empty());
  EXPECT_TRUE(locksetAt(R, P, nthWrite(P, "shared", 2)).empty())
      << "join kept a lock held on only one incoming path";
}

//===--------------------------------------------------------------------===//
// Verdicts (moved from test_workload.cpp).
//===--------------------------------------------------------------------===//

TEST(RaceDetect, ProtectedAccessIsNotARace) {
  RaceCheckService Svc(baseOptions());
  Svc.update(compileOk(R"(
    lock_t l;
    int shared;
    void main(void) {
      lock_t *p; lock_t *q;
      p = &l;
      q = p;
      lock(p);
      shared = 1;
      unlock(p);
      lock(q);
      shared = 2;
      unlock(q);
    }
  )"));
  // p and q must-alias l: both critical sections hold the same lock.
  EXPECT_TRUE(Svc.report()->Warnings.empty())
      << "false race between accesses under the same (aliased) lock";
}

TEST(RaceDetect, UnprotectedAccessRaces) {
  RaceCheckService Svc(baseOptions());
  Svc.update(compileOk(R"(
    lock_t l;
    int shared;
    void main(void) {
      lock_t *p;
      p = &l;
      lock(p);
      shared = 1;
      unlock(p);
      shared = 2;
    }
  )"));
  ASSERT_EQ(Svc.report()->Warnings.size(), 1u);
  EXPECT_EQ(Svc.report()->Warnings[0].Var, "shared");
}

TEST(RaceDetect, DifferentLocksRace) {
  RaceCheckService Svc(baseOptions());
  Svc.update(compileOk(R"(
    lock_t l1; lock_t l2;
    int shared;
    void main(void) {
      lock_t *p; lock_t *q;
      p = &l1;
      q = &l2;
      lock(p);
      shared = 1;
      unlock(p);
      lock(q);
      shared = 2;
      unlock(q);
    }
  )"));
  EXPECT_EQ(Svc.report()->Warnings.size(), 1u);
}

TEST(RaceDetect, AmbiguousLockGivesNoProtection) {
  // q may point to l1 or l2: no must-alias, so the lockset stays empty
  // and both accesses are reported (the sound direction for bug
  // finding).
  RaceCheckService Svc(baseOptions());
  CheckReport CR = Svc.update(compileOk(R"(
    lock_t l1; lock_t l2;
    int shared;
    void main(void) {
      lock_t *q;
      if (nondet) { q = &l1; } else { q = &l2; }
      lock(q);
      shared = 1;
      unlock(q);
      lock(q);
      shared = 2;
      unlock(q);
    }
  )"));
  EXPECT_EQ(Svc.report()->Warnings.size(), 1u);
  EXPECT_EQ(CR.UnresolvedLockSites, 4u);
}

TEST(RaceDetect, LockClustersContainOnlyLockRelatedVars) {
  // The paper's flexibility claim: lock clusters are comprised solely
  // of lock pointers (and lock objects).
  RaceCheckService Svc(baseOptions());
  CheckReport CR = Svc.update(compileOk(R"(
    lock_t l;
    int shared;
    void main(void) {
      lock_t *p;
      int a; int *x;
      p = &l;
      x = &a;
      lock(p);
      shared = 1;
      unlock(p);
    }
  )"));
  std::shared_ptr<const query::QuerySnapshot> Snap =
      Svc.alias().engine().snapshot();
  const ir::Program &P = Snap->program();
  std::set<uint32_t> LockClusters;
  for (ir::VarId V = 0; V < P.numVars(); ++V)
    if (P.var(V).isLockPointer())
      for (uint32_t CI : Snap->clustersOf(V))
        LockClusters.insert(CI);
  ASSERT_FALSE(LockClusters.empty());
  EXPECT_EQ(LockClusters.size(), CR.LockClusters);
  for (uint32_t CI : LockClusters)
    for (ir::VarId V : Snap->cover()[CI].Members)
      EXPECT_EQ(P.var(V).Base, ir::BaseType::Lock)
          << P.var(V).Name << " in a lock cluster";
}

TEST(RaceDetect, GeneratedDriverWorkloadRuns) {
  workload::GeneratorConfig C;
  C.Seed = 21;
  C.NumFunctions = 15;
  C.Communities = 4;
  C.LockPointers = 3;
  C.SharedVariables = 3;
  RaceCheckService Svc(baseOptions());
  CheckReport CR = Svc.update(compileOk(workload::generateProgram(C)));
  EXPECT_GT(Svc.report()->SharedVariables, 0u);
  EXPECT_GT(CR.LockClusters, 0u);
}

//===--------------------------------------------------------------------===//
// Soundness regressions: unresolved sites and the StepBudget direction.
//===--------------------------------------------------------------------===//

TEST(RaceDetect, UnresolvedUnlockClearsLockset) {
  // The unsound direction this pins: an unlock through an ambiguous
  // pointer may release the lock we believe is held. Dropping the
  // unresolved site kept l1 in the lockset across unlock(q), claiming
  // both writes are protected by l1 -- and hiding the race that exists
  // when q == l1 at runtime. The unknown operation must clear the
  // lockset instead.
  RaceCheckService Svc(baseOptions());
  CheckReport CR = Svc.update(compileOk(R"(
    lock_t l1; lock_t l2;
    int shared;
    void main(void) {
      lock_t *p; lock_t *q;
      p = &l1;
      if (nondet) { q = &l1; } else { q = &l2; }
      lock(p);
      shared = 1;
      unlock(q);
      shared = 2;
      unlock(p);
    }
  )"));
  EXPECT_EQ(CR.UnresolvedLockSites, 1u) << "only unlock(q) is ambiguous";
  const RaceReport &R = *Svc.report();
  ASSERT_EQ(R.Warnings.size(), 1u)
      << "unknown unlock must clear the lockset (report the race)";
  EXPECT_EQ(R.Warnings[0].Var, "shared");
  const ir::Program &P = Svc.alias().driver().program();
  EXPECT_TRUE(locksetAt(R, P, nthWrite(P, "shared", 1)).empty());
}

TEST(RaceCheck, HeapLocksFromOneFactoryDoNotProtect) {
  // mk() allocates every lock at one site, so p and q must-point to the
  // same abstract object while holding two different locks at run
  // time. Taking that singleton for one lock would put it in both
  // locksets and hide the race; an allocation-site singleton must
  // count as unresolved and clear the lockset.
  RaceCheckService Svc(baseOptions());
  CheckReport CR = Svc.update(compileOk(R"(
    int shared;
    lock_t *mk(void) { lock_t *m; m = malloc(); return m; }
    void main(void) {
      lock_t *p; lock_t *q;
      p = mk();
      q = mk();
      lock(p);
      shared = 1;
      unlock(p);
      lock(q);
      shared = 2;
      unlock(q);
    }
  )"));
  EXPECT_EQ(CR.UnresolvedLockSites, 4u);
  const RaceReport &R = *Svc.report();
  ASSERT_EQ(R.Warnings.size(), 1u) << "heap locks hid the race";
  EXPECT_EQ(R.Warnings[0].Var, "shared");
  EXPECT_TRUE(R.Warnings[0].A->Degraded);
  EXPECT_TRUE(R.Warnings[0].B->Degraded);
}

TEST(RaceDetect, BudgetedRacesAreASupersetOfUnbudgeted) {
  std::string Src = workload::generateProgram(raceConfig(8, 21));
  core::BootstrapOptions FullOpts = baseOptions();
  FullOpts.EngineOpts.StepBudget = 0;
  core::BootstrapOptions StarvedOpts = baseOptions();
  StarvedOpts.EngineOpts.StepBudget = 1;
  RaceCheckService Full(FullOpts), Budgeted(StarvedOpts);
  Full.update(compileOk(Src));
  Budgeted.update(compileOk(Src));

  std::set<std::string> FullKeys = raceKeys(*Full.report());
  std::set<std::string> BudgetKeys = raceKeys(*Budgeted.report());
  EXPECT_FALSE(FullKeys.empty());
  for (const std::string &K : FullKeys)
    EXPECT_TRUE(BudgetKeys.count(K))
        << "budget starvation hid race " << K << " (unsound direction)";
}

//===--------------------------------------------------------------------===//
// Engine: the verdicts of the former batch detector, pinned.
//===--------------------------------------------------------------------===//

TEST(RaceCheck, EngineMatchesBatchDetector) {
  // What the separate batch detector (StepBudget 50000) reported on
  // these seeds before it was folded into the engine: warning count,
  // unresolved lock sites, and a digest of the sorted race-key set.
  struct Pinned {
    uint64_t Seed;
    uint32_t Warnings;
    uint32_t Unresolved;
    support::Digest Keys;
  };
  const Pinned Batch[] = {
      {11, 267, 14, {0x58bed6d962c637edull, 0xa43077d62607126eull}},
      {21, 208, 6, {0xd97c33ff1ed48421ull, 0x3e7a02f70a631cfbull}},
      {33, 229, 20, {0x09e868ca808ce80aull, 0x0b4a11fa6a38204aull}},
  };
  for (const Pinned &B : Batch) {
    RaceCheckService Svc(baseOptions());
    CheckReport CR =
        Svc.update(compileOk(workload::generateProgram(raceConfig(10, B.Seed))));
    std::set<std::string> Keys = raceKeys(*Svc.report());
    support::ContentHasher H;
    for (const std::string &K : Keys)
      H.str(K);
    EXPECT_EQ(CR.Warnings, B.Warnings) << "seed " << B.Seed;
    EXPECT_EQ(Keys.size(), B.Warnings) << "seed " << B.Seed;
    EXPECT_EQ(CR.UnresolvedLockSites, B.Unresolved) << "seed " << B.Seed;
    EXPECT_EQ(CR.LockClusters, 3u) << "seed " << B.Seed;
    EXPECT_TRUE(H.digest() == B.Keys)
        << "seed " << B.Seed << ": race-key set moved";
  }
}

//===--------------------------------------------------------------------===//
// Engine: the 50-edit differential oracle.
//===--------------------------------------------------------------------===//

TEST(RaceCheck, FiftyEditOracleMatchesColdBatch) {
  workload::GeneratorConfig Cfg = raceConfig(8, 42);
  Cfg.StmtsPerFunction = 8; // Keep 2x51 cold re-runs affordable.
  core::BootstrapOptions Opts = baseOptions();

  for (uint64_t StreamSeed : {7u, 11u}) {
    std::vector<workload::ProgramEdit> Edits =
        workload::generateEditStream(Cfg, /*NumEdits=*/50, StreamSeed);
    ASSERT_EQ(Edits.size(), 50u);
    workload::EditState St = workload::initialEditState(Cfg);

    RaceCheckService Incr(Opts);
    uint64_t TotalWarnings = 0, TotalChurn = 0;
    std::shared_ptr<const RaceReport> Prev;
    for (uint32_t I = 0; I <= Edits.size(); ++I) {
      if (I > 0)
        workload::applyEdit(St, Edits[I - 1]);
      CheckReport CR =
          Incr.update(compileOk(workload::generateProgram(Cfg, St)));
      std::string IncrJson = toReportJson(*Incr.report());
      ASSERT_EQ(IncrJson, coldReportJson(Cfg, St, Opts))
          << "stream " << StreamSeed << ": divergence at edit " << I
          << " (kind " << (I == 0 ? -1 : int(Edits[I - 1].Kind)) << ")";
      EXPECT_EQ(CR.FunctionsChecked + CR.FunctionsFromCache, CR.Functions)
          << "stream " << StreamSeed << " edit " << I;
      expectDeltaIsReportDiff(CR, Prev, *Incr.report(),
                              "stream " + std::to_string(StreamSeed) +
                                  " edit " + std::to_string(I));
      Prev = Incr.report();
      TotalWarnings += CR.Warnings;
      if (I > 0)
        TotalChurn += CR.WarningsAdded + CR.WarningsRetracted;
    }
    EXPECT_GT(TotalChurn, 0u)
        << "stream " << StreamSeed << " never changed a verdict";
    EXPECT_GT(TotalWarnings, 0u)
        << "stream " << StreamSeed << " never produced a verdict";
  }
}

// A variable losing its last access retracts all of its warnings; a new
// shared variable adds its own; a variable leaving the shared set takes
// its warnings with it. Each step's delta equals the whole-report diff
// and its report equals a cold service's.
TEST(RaceCheck, DeltaFollowsVanishingAndNewVariables) {
  // `a` races between f0 and f1, `b` between f0 and main. f0's write
  // to `b` keeps its position, so b's warning keeps its ID throughout.
  const char *V0 = R"(
    lock_t l;
    int a; int b;
    void f0(void) { b = 1; a = 1; }
    void f1(void) { a = 2; }
    void main(void) {
      lock_t *p;
      p = &l;
      lock(p);
      b = 3;
      unlock(p);
      f0();
      f1();
    }
  )";
  // `a` loses every access; the new shared `c` races between f0 and f1.
  const char *V1 = R"(
    lock_t l;
    int a; int b; int c;
    void f0(void) { b = 1; c = 1; }
    void f1(void) { c = 2; }
    void main(void) {
      lock_t *p;
      p = &l;
      lock(p);
      b = 3;
      unlock(p);
      f0();
      f1();
    }
  )";
  // `c` leaves the shared set together with its accesses.
  const char *V2 = R"(
    lock_t l;
    int a; int b;
    void f0(void) { b = 1; }
    void f1(void) { }
    void main(void) {
      lock_t *p;
      p = &l;
      lock(p);
      b = 3;
      unlock(p);
      f0();
      f1();
    }
  )";
  auto varsOf = [](const std::vector<RaceWarning> &Ws) {
    std::set<std::string> Vars;
    for (const RaceWarning &W : Ws)
      Vars.insert(W.Var);
    return Vars;
  };
  RaceCheckService Svc(baseOptions());
  std::shared_ptr<const RaceReport> Prev;
  uint32_t Step = 0;
  auto step = [&](const char *Src) {
    CheckReport CR = Svc.update(compileOk(Src));
    std::string Where = "step " + std::to_string(Step++);
    RaceCheckService Cold(baseOptions());
    Cold.update(compileOk(Src));
    EXPECT_EQ(toReportJson(*Svc.report()), toReportJson(*Cold.report()))
        << Where;
    expectDeltaIsReportDiff(CR, Prev, *Svc.report(), Where);
    Prev = Svc.report();
    return CR;
  };

  CheckReport R0 = step(V0);
  EXPECT_EQ(varsOf(Svc.report()->Warnings),
            (std::set<std::string>{"a", "b"}));
  std::vector<std::string> BIds;
  for (const RaceWarning &W : Svc.report()->Warnings)
    if (W.Var == "b")
      BIds.push_back(W.Id);

  CheckReport R1 = step(V1);
  EXPECT_EQ(varsOf(R1.Delta.Retracted), (std::set<std::string>{"a"}));
  EXPECT_EQ(varsOf(R1.Delta.Added), (std::set<std::string>{"c"}));
  EXPECT_EQ(varsOf(Svc.report()->Warnings),
            (std::set<std::string>{"b", "c"}));

  CheckReport R2 = step(V2);
  EXPECT_EQ(varsOf(R2.Delta.Retracted), (std::set<std::string>{"c"}));
  EXPECT_TRUE(R2.Delta.Added.empty());
  EXPECT_EQ(Svc.report()->SharedVariables, 2u);
  std::vector<std::string> BIdsAfter;
  for (const RaceWarning &W : Svc.report()->Warnings)
    if (W.Var == "b")
      BIdsAfter.push_back(W.Id);
  EXPECT_EQ(BIdsAfter, BIds) << "b's warnings survive the churn around them";

  // Back to the start: a's warnings return, nothing else moves.
  CheckReport R3 = step(V0);
  EXPECT_EQ(varsOf(R3.Delta.Added), (std::set<std::string>{"a"}));
  EXPECT_TRUE(R3.Delta.Retracted.empty());
  EXPECT_EQ(idsOf(Svc.report()->Warnings), idsOf(R0.Delta.Added));
}

// reset() drops the per-variable blocks with the rest: the next check
// recomputes every function, equals a cold service's report, and adds
// every warning in it.
TEST(RaceCheck, ResetBehavesLikeAColdService) {
  workload::GeneratorConfig Cfg = raceConfig(8, 42);
  std::vector<workload::ProgramEdit> Edits =
      workload::generateEditStream(Cfg, /*NumEdits=*/6, /*StreamSeed=*/7);
  workload::EditState St = workload::initialEditState(Cfg);
  core::BootstrapOptions Opts = baseOptions();
  RaceCheckService Svc(Opts);
  for (uint32_t I = 0; I <= Edits.size(); ++I) {
    if (I > 0)
      workload::applyEdit(St, Edits[I - 1]);
    if (I == Edits.size())
      Svc.engine().reset();
    CheckReport CR = Svc.update(compileOk(workload::generateProgram(Cfg, St)));
    if (I < Edits.size())
      continue;
    const RaceReport &R = *Svc.report();
    ASSERT_FALSE(R.Warnings.empty());
    EXPECT_EQ(toReportJson(R), coldReportJson(Cfg, St, Opts));
    EXPECT_EQ(CR.FunctionsChecked, CR.Functions);
    EXPECT_EQ(idsOf(CR.Delta.Added), idsOf(R.Warnings));
    EXPECT_TRUE(CR.Delta.Retracted.empty());
  }
}

//===--------------------------------------------------------------------===//
// Engine: incremental behavior.
//===--------------------------------------------------------------------===//

TEST(RaceCheck, TouchUpdateReplaysEveryFunction) {
  workload::GeneratorConfig Cfg = raceConfig(10, 21);
  std::string Src = workload::generateProgram(Cfg);
  RaceCheckService Svc(baseOptions());
  CheckReport First = Svc.update(compileOk(Src));
  EXPECT_EQ(First.FunctionsChecked, First.Functions);
  std::string FirstJson = toReportJson(*Svc.report());

  CheckReport Touch = Svc.update(compileOk(Src));
  EXPECT_EQ(Touch.FunctionsChecked, 0u)
      << "identical version recomputed lockset facts";
  EXPECT_EQ(Touch.FunctionsFromCache, Touch.Functions);
  EXPECT_TRUE(Touch.Delta.Added.empty());
  EXPECT_TRUE(Touch.Delta.Retracted.empty());
  EXPECT_EQ(toReportJson(*Svc.report()), FirstJson);

  RaceCheckEngine Fresh;
  EXPECT_THROW(Fresh.check(Svc.alias().engine().snapshot(), nullptr, nullptr),
               std::invalid_argument);
}

TEST(RaceCheck, StableWarningIdsSurviveUnrelatedEdits) {
  // f0 writes `shared` unprotected; main writes it under l. That pair
  // is the only warning. Editing f1 (shape-identical operand swap, so
  // no id in the program moves) must neither change the warning's ID
  // nor recompute any other function's facts.
  const char *V0 = R"(
    lock_t l;
    int shared; int other;
    void f0(void) {
      shared = 1;
    }
    void f1(void) {
      int *x; int *y; int a;
      x = &a;
      y = x;
      other = 2;
    }
    void main(void) {
      lock_t *p;
      p = &l;
      lock(p);
      shared = 3;
      unlock(p);
      f0();
      f1();
    }
  )";
  const char *V1 = R"(
    lock_t l;
    int shared; int other;
    void f0(void) {
      shared = 1;
    }
    void f1(void) {
      int *x; int *y; int a;
      y = &a;
      x = y;
      other = 2;
    }
    void main(void) {
      lock_t *p;
      p = &l;
      lock(p);
      shared = 3;
      unlock(p);
      f0();
      f1();
    }
  )";
  // V2: f0 no longer touches `shared` -- the warning must retract.
  const char *V2 = R"(
    lock_t l;
    int shared; int other;
    void f0(void) {
      other = 1;
    }
    void f1(void) {
      int *x; int *y; int a;
      y = &a;
      x = y;
      other = 2;
    }
    void main(void) {
      lock_t *p;
      p = &l;
      lock(p);
      shared = 3;
      unlock(p);
      f0();
      f1();
    }
  )";

  RaceCheckService Svc(baseOptions());
  CheckReport R0 = Svc.update(compileOk(V0));
  ASSERT_EQ(Svc.report()->Warnings.size(), 1u);
  RaceWarning W0 = Svc.report()->Warnings[0];
  EXPECT_EQ(W0.Var, "shared");
  EXPECT_EQ(W0.Id.size(), 16u);
  EXPECT_EQ(R0.WarningsAdded, 1u);

  CheckReport R1 = Svc.update(compileOk(V1));
  ASSERT_EQ(Svc.report()->Warnings.size(), 1u);
  EXPECT_EQ(Svc.report()->Warnings[0].Id, W0.Id)
      << "warning ID changed across an unrelated edit";
  EXPECT_TRUE(R1.Delta.Added.empty());
  EXPECT_TRUE(R1.Delta.Retracted.empty());
  EXPECT_EQ(R1.FunctionsChecked, 1u) << "only f1 was edited";
  EXPECT_EQ(R1.FunctionsFromCache, R1.Functions - 1);

  // V2 retracts the `shared` warning (f0 no longer touches it) and in
  // the same batch creates a fresh unprotected write pair on `other`
  // (f0 and f1 both write it now) -- one retraction, one addition.
  CheckReport R2 = Svc.update(compileOk(V2));
  ASSERT_EQ(Svc.report()->Warnings.size(), 1u);
  EXPECT_EQ(Svc.report()->Warnings[0].Var, "other");
  ASSERT_EQ(R2.Delta.Retracted.size(), 1u);
  EXPECT_EQ(R2.Delta.Retracted[0].Id, W0.Id);
  ASSERT_EQ(R2.Delta.Added.size(), 1u);
  EXPECT_EQ(R2.Delta.Added[0].Var, "other");
  EXPECT_EQ(Svc.report()->findById(W0.Id), nullptr);
  EXPECT_EQ(Svc.report()->findById(R2.Delta.Added[0].Id),
            &Svc.report()->Warnings[0]);
}

TEST(RaceCheck, BudgetFallbackDegradesConservatively) {
  // A starved cascade flags the lock cluster; the snapshot serves it
  // through the fallback chain, so every resolution is incomplete and
  // the engine degrades to empty locksets: the protected pair is
  // reported, marked degraded, with non-FSCS provenance.
  const char *Src = R"(
    lock_t l;
    int shared;
    void main(void) {
      lock_t *p; lock_t *q;
      p = &l;
      q = p;
      lock(p);
      shared = 1;
      unlock(p);
      lock(q);
      shared = 2;
      unlock(q);
    }
  )";
  core::BootstrapOptions Opts = baseOptions();
  Opts.EngineOpts.StepBudget = 1;
  RaceCheckService Svc(Opts);
  CheckReport CR = Svc.update(compileOk(Src));
  EXPECT_GT(CR.UnresolvedLockSites, 0u);
  ASSERT_EQ(Svc.report()->Warnings.size(), 1u)
      << "budget fallback must over-report, not hide";
  const RaceWarning &W = Svc.report()->Warnings[0];
  EXPECT_TRUE(W.A->Degraded);
  EXPECT_TRUE(W.B->Degraded);
  EXPECT_TRUE(W.A->Lockset.empty());
  EXPECT_NE(W.Source, query::AnswerSource::Fscs);
  EXPECT_GE(Svc.report()->DegradedFunctions, 1u);
}

TEST(RaceCheck, ReportIsDeterministic) {
  workload::GeneratorConfig Cfg = raceConfig(10, 33);
  std::string Src = workload::generateProgram(Cfg);
  RaceCheckService A(baseOptions()), B(baseOptions());
  A.update(compileOk(Src));
  B.update(compileOk(Src));
  std::string JA = toReportJson(*A.report());
  EXPECT_EQ(JA, toReportJson(*B.report()));
  EXPECT_FALSE(A.report()->Warnings.empty());
  // Ranked: severity descending, ID ascending within ties.
  const std::vector<RaceWarning> &Ws = A.report()->Warnings;
  for (size_t I = 1; I < Ws.size(); ++I) {
    EXPECT_GE(Ws[I - 1].Severity, Ws[I].Severity);
    if (Ws[I - 1].Severity == Ws[I].Severity) {
      EXPECT_LT(Ws[I - 1].Id, Ws[I].Id);
    }
  }
}

//===--------------------------------------------------------------------===//
// RaceReport primitives.
//===--------------------------------------------------------------------===//

TEST(RaceReport, WarningIdIsOrientationFree) {
  std::string AB = warningId("shared", "f0", 3, true, "f1", 7, false);
  std::string BA = warningId("shared", "f1", 7, false, "f0", 3, true);
  EXPECT_EQ(AB, BA);
  EXPECT_EQ(AB.size(), 16u);
  // And sensitive to every coordinate.
  EXPECT_NE(AB, warningId("shared", "f0", 4, true, "f1", 7, false));
  EXPECT_NE(AB, warningId("other", "f0", 3, true, "f1", 7, false));
  EXPECT_NE(AB, warningId("shared", "f0", 3, false, "f1", 7, true));
}

TEST(RaceReport, DiffByWarningId) {
  auto Mk = [](const std::string &Id) {
    RaceWarning W;
    W.Id = Id;
    return W;
  };
  RaceReport Old, New;
  Old.Warnings = {Mk("a"), Mk("b"), Mk("c")};
  New.Warnings = {Mk("b"), Mk("d")};
  ReportDelta D = diffReports(Old, New);
  ASSERT_EQ(D.Added.size(), 1u);
  EXPECT_EQ(D.Added[0].Id, "d");
  ASSERT_EQ(D.Retracted.size(), 2u);
  EXPECT_EQ(D.Retracted[0].Id, "a");
  EXPECT_EQ(D.Retracted[1].Id, "c");
}

// Merging re-ranked warnings of the changed variables into the kept
// rest of a ranked report equals ranking the whole set again.
TEST(RaceReport, MergeEqualsFullRanking) {
  auto Mk = [](uint32_t Var, uint32_t Severity, uint32_t Serial) {
    RaceWarning W;
    W.Var = "v";
    W.Var += std::to_string(Var);
    W.Severity = Severity;
    W.Id = warningId(W.Var, "f", Serial, true, "g", Serial, false);
    return W;
  };
  std::mt19937 Rng(2027);
  uint32_t Serial = 0;
  // Few variables and severities: ties across changed and unchanged
  // variables are the common case.
  auto generate = [&](uint32_t Var, uint32_t Count) {
    std::vector<RaceWarning> Ws;
    for (uint32_t I = 0; I < Count; ++I)
      Ws.push_back(Mk(Var, 100 * (1 + Rng() % 3) + 25 * (Rng() % 2), Serial++));
    return Ws;
  };
  struct Case {
    const char *Name;
    uint32_t Vars;
    uint32_t OldPerVar;   ///< 0: no previous report.
    uint32_t FreshPerVar; ///< 0: the changed variables vanish.
    uint32_t ChangedMask; ///< Bit V: variable V changed.
  };
  const Case Cases[] = {
      {"some changed", 6, 9, 7, 0b010110},
      {"empty old side", 6, 0, 7, 0b111111},
      {"empty fresh side", 6, 9, 7, 0},
      {"all changed", 6, 9, 7, 0b111111},
      {"vanished variables", 6, 9, 0, 0b001001},
      {"both empty", 6, 0, 0, 0b111111},
  };
  for (const Case &C : Cases)
    for (uint32_t Round = 0; Round < 20; ++Round) {
      std::vector<RaceWarning> Old, Fresh;
      std::vector<uint32_t> OldVar;
      for (uint32_t V = 0; V < C.Vars; ++V) {
        for (RaceWarning &W : generate(V, C.OldPerVar))
          Old.push_back(std::move(W));
        if (C.ChangedMask >> V & 1)
          for (RaceWarning &W : generate(V, Rng() % (C.FreshPerVar + 1)))
            Fresh.push_back(std::move(W));
      }
      rankWarnings(Old);
      rankWarnings(Fresh);
      std::vector<uint8_t> Keep;
      std::vector<RaceWarning> Want = Fresh;
      for (const RaceWarning &W : Old) {
        uint32_t V = std::stoul(W.Var.substr(1));
        Keep.push_back(!(C.ChangedMask >> V & 1));
        if (Keep.back())
          Want.push_back(W);
      }
      rankWarnings(Want);

      std::vector<uint32_t> From;
      std::vector<RaceWarning> Got =
          mergeRankedWarnings(Old, Keep, Fresh, From);
      ASSERT_EQ(idsOf(Got), idsOf(Want)) << C.Name << " round " << Round;
      ASSERT_EQ(From.size(), Got.size()) << C.Name;
      for (size_t I = 0; I < Got.size(); ++I) {
        const RaceWarning &Src = From[I] < Old.size()
                                     ? Old[From[I]]
                                     : Fresh[From[I] - Old.size()];
        EXPECT_EQ(Src.Id, Got[I].Id) << C.Name << " round " << Round;
        if (From[I] < Old.size()) {
          EXPECT_TRUE(Keep[From[I]]) << C.Name << ": a dropped warning";
        }
      }
    }
}

TEST(RaceReport, JsonEscapesStrings) {
  RaceReport R;
  RaceWarning W;
  W.Id = "0123456789abcdef";
  W.Var = "a\"b\\c";
  auto Site = std::make_shared<SiteVerdict>();
  Site->Func = "f0";
  Site->Stmt = "x\t=\ny";
  W.A = W.B = Site;
  R.Warnings.push_back(W);
  std::string J = toReportJson(R);
  EXPECT_NE(J.find("a\\\"b\\\\c"), std::string::npos);
  EXPECT_NE(J.find("x\\t=\\ny"), std::string::npos);
  EXPECT_EQ(J.find('\n'), std::string::npos) << "report JSON is one line";
}
