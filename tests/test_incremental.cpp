//===- tests/test_incremental.cpp - Incremental re-analysis tests ---------===//
//
// The incremental-driver correctness oracle (byte-identical stats JSON
// against a cold full run after every edit of a 50-edit stream), the
// strictly-fewer-clusters guarantees for single-function edits, the
// Steensgaard adoption fast path, and the stability properties of the
// dependency-scope machinery in core/ClusterDependencies.h.
//
//===----------------------------------------------------------------------===//

#include "core/ClusterDependencies.h"
#include "core/IncrementalDriver.h"
#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "support/Statistics.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

using namespace bsaa;
using namespace bsaa::core;

namespace {

std::unique_ptr<ir::Program> compileOk(const std::string &Src) {
  frontend::Diagnostics Diags;
  auto P = frontend::compileString(Src, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.toString();
  return P;
}

std::unique_ptr<ir::Program> compileVersion(const workload::GeneratorConfig &C,
                                            const workload::EditState &St) {
  return compileOk(workload::generateProgram(C, St));
}

/// The editable workload, sized for test time: no recursion and no
/// cross-community copies keep dependency cones small, so
/// single-function edits invalidate few clusters.
workload::GeneratorConfig editableConfig(uint32_t NumFunctions) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = 42;
  Cfg.NumFunctions = NumFunctions;
  Cfg.StmtsPerFunction = 18;
  Cfg.Communities = 4;
  Cfg.PointerFunctionPercent = 60;
  Cfg.WeightNoise = 20;
  Cfg.WeightCall = 4;
  Cfg.RecursionPercent = 0;
  Cfg.CrossCommunityBasisPoints = 0;
  return Cfg;
}

BootstrapOptions baseOptions() {
  BootstrapOptions Opts;
  Opts.AndersenThreshold = 60;
  Opts.EngineOpts.StepBudget = 50000;
  return Opts;
}

/// Timing- and cache-counter-stripped stats JSON: the byte-identity
/// oracle format (timings are never repeatable; cache counters are
/// cumulative over the cache's lifetime).
const StatsJsonOptions Strip{/*IncludeTimings=*/false,
                             /*IncludeCacheStats=*/false};

/// A cold full run over the current version with fresh caches and a
/// fresh Statistics registry -- the reference the incremental result
/// must match byte for byte.
std::string coldReferenceJson(const workload::GeneratorConfig &Cfg,
                              const workload::EditState &St,
                              const BootstrapOptions &Opts) {
  Statistics::global().clear();
  std::unique_ptr<ir::Program> P = compileVersion(Cfg, St);
  BootstrapDriver Full(*P, Opts);
  BootstrapResult R = Full.runAll();
  return toStatsJson(R, Strip);
}

} // namespace

//===--------------------------------------------------------------------===//
// The oracle: 50 edits, byte-identical to a cold run after each.
//===--------------------------------------------------------------------===//

TEST(Incremental, FiftyEditStreamMatchesColdRunByteForByte) {
  workload::GeneratorConfig Cfg = editableConfig(10);
  Cfg.StmtsPerFunction = 10; // Keep 51 full re-runs affordable.
  BootstrapOptions Opts = baseOptions();
  Opts.AndersenThreshold = 6; // Exercise the Andersen refinement path too.
  Opts.EngineOpts.StepBudget = 20000;

  std::vector<workload::ProgramEdit> Edits =
      workload::generateEditStream(Cfg, /*NumEdits=*/50, /*StreamSeed=*/7);
  ASSERT_EQ(Edits.size(), 50u);
  workload::EditState St = workload::initialEditState(Cfg);

  IncrementalDriver Incr(Opts);
  for (uint32_t I = 0; I <= Edits.size(); ++I) {
    if (I > 0)
      workload::applyEdit(St, Edits[I - 1]);
    UpdateReport Rep;
    const BootstrapResult &IR = Incr.update(compileVersion(Cfg, St), &Rep);
    std::string IncrJson = toStatsJson(IR, Strip);
    ASSERT_EQ(IncrJson, coldReferenceJson(Cfg, St, Opts))
        << "divergence at edit " << I << " (kind "
        << (I == 0 ? -1 : int(Edits[I - 1].Kind)) << ")";
    // Every cluster is accounted for exactly once.
    EXPECT_EQ(Rep.ClustersReanalyzed + Rep.ClustersFromCache, Rep.NumClusters)
        << "at edit " << I;
  }
}

//===--------------------------------------------------------------------===//
// Reuse guarantees per edit kind.
//===--------------------------------------------------------------------===//

TEST(Incremental, SingleMutateReanalyzesStrictlyFewerClusters) {
  workload::GeneratorConfig Cfg = editableConfig(12);
  BootstrapOptions Opts = baseOptions();
  workload::EditState St = workload::initialEditState(Cfg);

  IncrementalDriver Incr(Opts);
  UpdateReport Init;
  Incr.update(compileVersion(Cfg, St), &Init);
  // The first version is all-cold by definition.
  EXPECT_EQ(Init.ClustersFromCache, 0u);
  EXPECT_EQ(Init.ClustersReanalyzed, Init.NumClusters);
  EXPECT_FALSE(Init.SteensgaardAdopted);

  // Mutate one function: shape (and therefore every id in the program)
  // is stable, so exactly the clusters whose dependency cone contains
  // the edited function can miss.
  workload::applyEdit(St, {workload::EditKind::Mutate, /*Function=*/4});
  UpdateReport Rep;
  Incr.update(compileVersion(Cfg, St), &Rep);

  EXPECT_EQ(Rep.NumClusters, Init.NumClusters);
  EXPECT_GT(Rep.ClustersFromCache, 0u) << "no reuse on a one-function edit";
  EXPECT_LT(Rep.ClustersReanalyzed, Rep.NumClusters);
  EXPECT_GT(Rep.ClustersReanalyzed, 0u) << "the edited cone must re-run";
  // The dependency index predicted every miss.
  EXPECT_LE(Rep.ClustersReanalyzed, Rep.PredictedInvalidated.size());
  ASSERT_EQ(Rep.ChangedFunctions.size(), 1u);
  EXPECT_EQ(Rep.ChangedFunctions[0], "f4");
  EXPECT_TRUE(Rep.AddedFunctions.empty());
  EXPECT_TRUE(Rep.RemovedFunctions.empty());
}

TEST(Incremental, AppendReanalyzesOnlyTheNewFunctionsClusters) {
  workload::GeneratorConfig Cfg = editableConfig(12);
  BootstrapOptions Opts = baseOptions();
  workload::EditState St = workload::initialEditState(Cfg);

  IncrementalDriver Incr(Opts);
  UpdateReport Init;
  Incr.update(compileVersion(Cfg, St), &Init);

  // Appended functions are named and shaped to land strictly at the end
  // of the frontend's numbering, so every pre-existing cluster replays.
  workload::applyEdit(St, {workload::EditKind::Append, /*Function=*/0});
  UpdateReport Rep;
  Incr.update(compileVersion(Cfg, St), &Rep);

  EXPECT_GE(Rep.NumClusters, Init.NumClusters);
  EXPECT_EQ(Rep.ClustersFromCache, Init.NumClusters)
      << "an append must replay every pre-existing cluster";
  EXPECT_EQ(Rep.ClustersReanalyzed, Rep.NumClusters - Init.NumClusters);
  ASSERT_EQ(Rep.AddedFunctions.size(), 1u);
  EXPECT_EQ(Rep.AddedFunctions[0], "x0");
  EXPECT_TRUE(Rep.ChangedFunctions.empty());
  EXPECT_TRUE(Rep.RemovedFunctions.empty());
}

TEST(Incremental, TouchAdoptsSteensgaardAndReplaysEverything) {
  workload::GeneratorConfig Cfg = editableConfig(10);
  BootstrapOptions Opts = baseOptions();
  workload::EditState St = workload::initialEditState(Cfg);

  IncrementalDriver Incr(Opts);
  UpdateReport Init;
  std::string First =
      toStatsJson(Incr.update(compileVersion(Cfg, St), &Init), Strip);

  // Resubmitting the identical program is the no-op-edit fast path:
  // the partition-relevant fingerprint matches, so Steensgaard is
  // adopted and every cluster replays from cache.
  UpdateReport Rep;
  std::string Second =
      toStatsJson(Incr.update(compileVersion(Cfg, St), &Rep), Strip);

  EXPECT_TRUE(Rep.SteensgaardAdopted);
  EXPECT_EQ(Rep.ClustersReanalyzed, 0u);
  EXPECT_EQ(Rep.ClustersFromCache, Rep.NumClusters);
  EXPECT_TRUE(Rep.ChangedFunctions.empty());
  EXPECT_TRUE(Rep.AddedFunctions.empty());
  EXPECT_TRUE(Rep.RemovedFunctions.empty());
  EXPECT_EQ(First, Second);
}

TEST(Incremental, StubForcesConservativeButCorrectReanalysis) {
  workload::GeneratorConfig Cfg = editableConfig(10);
  Cfg.StmtsPerFunction = 10;
  BootstrapOptions Opts = baseOptions();
  workload::EditState St = workload::initialEditState(Cfg);

  IncrementalDriver Incr(Opts);
  Incr.update(compileVersion(Cfg, St), nullptr);

  // A stub shrinks the body, shifting every downstream id: reuse may
  // collapse, but the oracle must still hold.
  workload::applyEdit(St, {workload::EditKind::Stub, /*Function=*/3});
  UpdateReport Rep;
  const BootstrapResult &IR = Incr.update(compileVersion(Cfg, St), &Rep);
  // The shrunken body shifts the LocIds of every function lowered after
  // f3, so the fingerprint delta legitimately names them all -- but the
  // stubbed function itself must be in it.
  EXPECT_TRUE(std::find(Rep.ChangedFunctions.begin(),
                        Rep.ChangedFunctions.end(),
                        "f3") != Rep.ChangedFunctions.end());
  EXPECT_EQ(toStatsJson(IR, Strip), coldReferenceJson(Cfg, St, Opts));
}

//===--------------------------------------------------------------------===//
// Dependency-scope machinery.
//===--------------------------------------------------------------------===//

TEST(ClusterDependencies, DependentFunctionsContainOwnersAndCallers) {
  const char *Src = R"(
    int *leaf(int *p) { return p; }
    int *mid(int *q) { int *t; t = leaf(q); return t; }
    void main(void) {
      int a; int *x; int *y;
      x = &a;
      y = mid(x);
    }
  )";
  auto P = compileOk(Src);
  BootstrapOptions Opts;
  Opts.AndersenThreshold = 1;
  BootstrapDriver Driver(*P, Opts);
  Driver.steensgaard();
  std::vector<Cluster> Cover = Driver.buildCover();
  const ir::CallGraph &CG = Driver.callGraph();

  for (const Cluster &C : Cover) {
    std::vector<ir::FuncId> D = dependentFunctions(*P, CG, C);
    std::set<ir::FuncId> InD(D.begin(), D.end());
    // Anchors: the entry function and every owner of a member, tracked
    // ref, or slice statement.
    EXPECT_TRUE(InD.count(P->entryFunction()));
    for (ir::VarId V : C.Members) {
      if (P->var(V).Owner != ir::InvalidFunc) {
        EXPECT_TRUE(InD.count(P->var(V).Owner))
            << "member owner missing for " << P->var(V).Name;
      }
    }
    for (ir::LocId L : C.Statements)
      EXPECT_TRUE(InD.count(P->loc(L).Owner));
    // Closure: callers of anything in D are in D.
    for (ir::FuncId F : D)
      for (ir::FuncId Caller : CG.callers(F))
        EXPECT_TRUE(InD.count(Caller))
            << P->func(Caller).Name << " calls " << P->func(F).Name
            << " but is outside the dependency cone";
  }
}

TEST(ClusterDependencies, ScopeKeysSurviveAnAppendEdit) {
  // The whole point of the scope key: clusters untouched by an edit
  // keep their key even though partition ids, hierarchy-node ids and
  // the whole-program fingerprint all change.
  workload::GeneratorConfig Cfg = editableConfig(10);
  workload::EditState St = workload::initialEditState(Cfg);
  auto P0 = compileVersion(Cfg, St);
  workload::applyEdit(St, {workload::EditKind::Append, /*Function=*/0});
  auto P1 = compileVersion(Cfg, St);

  BootstrapOptions Opts = baseOptions();
  BootstrapDriver D0(*P0, Opts), D1(*P1, Opts);
  const analysis::SteensgaardAnalysis &S0 = D0.steensgaard();
  const analysis::SteensgaardAnalysis &S1 = D1.steensgaard();
  std::vector<Cluster> Cover0 = D0.buildCover();
  std::vector<Cluster> Cover1 = D1.buildCover();

  // Appends preserve every existing VarId, so clusters pair up by
  // member list.
  ScopeKeyIndex I0(*P0, D0.callGraph(), S0), I1(*P1, D1.callGraph(), S1);
  std::map<std::vector<ir::VarId>, support::Digest> Keys0;
  for (const Cluster &C : Cover0)
    Keys0.emplace(C.Members, I0.key(C, Opts.EngineOpts));
  uint32_t Matched = 0;
  for (const Cluster &C : Cover1) {
    auto It = Keys0.find(C.Members);
    if (It == Keys0.end())
      continue; // The appended function's own clusters are new.
    ++Matched;
    support::Digest K1 = I1.key(C, Opts.EngineOpts);
    EXPECT_EQ(It->second.Hi, K1.Hi);
    EXPECT_EQ(It->second.Lo, K1.Lo);
  }
  // Every pre-existing cluster must have survived and matched.
  EXPECT_EQ(Matched, Cover0.size());
}

TEST(ClusterDependencies, IndexCoversEveryClusterThroughItsCone) {
  workload::GeneratorConfig Cfg = editableConfig(8);
  workload::EditState St = workload::initialEditState(Cfg);
  auto P = compileVersion(Cfg, St);
  BootstrapOptions Opts = baseOptions();
  BootstrapDriver D(*P, Opts);
  D.steensgaard();
  std::vector<Cluster> Cover = D.buildCover();

  std::vector<std::vector<uint32_t>> Index =
      buildClusterDependencyIndex(*P, D.callGraph(), Cover);
  ASSERT_EQ(Index.size(), P->numFuncs());
  // Index[F] lists exactly the clusters whose cone contains F.
  for (uint32_t I = 0; I < Cover.size(); ++I) {
    std::vector<ir::FuncId> D_I = dependentFunctions(*P, D.callGraph(), Cover[I]);
    std::set<ir::FuncId> InD(D_I.begin(), D_I.end());
    for (ir::FuncId F = 0; F < P->numFuncs(); ++F) {
      bool Listed = std::find(Index[F].begin(), Index[F].end(), I) !=
                    Index[F].end();
      EXPECT_EQ(Listed, InD.count(F) > 0)
          << "cluster " << I << " vs function " << P->func(F).Name;
    }
  }
}
