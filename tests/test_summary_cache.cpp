//===- tests/test_summary_cache.cpp - Cross-cluster summary cache ---------===//
//
// The memoization tentpole's oracle: a summary-cache hit must be
// *bit-identical* to recomputation. Each test compares a cache-off run
// against cold- and warm-cache runs of the same program -- per-cluster
// metrics, global Statistics accumulations, the timing-stripped stats
// JSON, and individual query answers through an adopted engine state --
// sequentially and under the real thread pool (run the suite with
// -DBSAA_TSAN=ON to let TSan watch the sharded buckets).
//
//===----------------------------------------------------------------------===//

#include "analysis/Steensgaard.h"
#include "core/AliasCover.h"
#include "core/BootstrapDriver.h"
#include "core/ClusterDependencies.h"
#include "core/RelevantStatements.h"
#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "fscs/ClusterAliasAnalysis.h"
#include "fscs/StateCodec.h"
#include "fscs/SummaryCache.h"
#include "support/Statistics.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <thread>

using namespace bsaa;

namespace {

std::unique_ptr<ir::Program> generate(uint64_t Seed) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.NumFunctions = 8;
  Cfg.StmtsPerFunction = 10;
  Cfg.Communities = 3;
  Cfg.LocalsPerFunction = 3;
  Cfg.RecursionPercent = 10;
  frontend::Diagnostics Diags;
  auto P = frontend::compileString(workload::generateProgram(Cfg), Diags);
  EXPECT_TRUE(P != nullptr) << Diags.toString();
  return P;
}

core::BootstrapOptions baseOptions() {
  core::BootstrapOptions Opts;
  Opts.AndersenThreshold = 4; // Force Andersen splitting.
  Opts.EngineOpts.StepBudget = 20000;
  return Opts;
}

/// Everything a run reports except wall-clock and cache provenance.
std::string replayableJson(const core::BootstrapResult &R) {
  core::StatsJsonOptions O;
  O.IncludeTimings = false;
  O.IncludeCacheStats = false;
  return core::toStatsJson(R, O);
}

/// Runs the full pipeline with a cleared global Statistics registry so
/// the JSON's statistics section reflects exactly this run.
core::BootstrapResult runIsolated(const ir::Program &P,
                                  const core::BootstrapOptions &Opts) {
  Statistics::global().clear();
  core::BootstrapDriver Driver(P, Opts);
  return Driver.runAll();
}

void expectSameClusterMetrics(const core::BootstrapResult &A,
                              const core::BootstrapResult &B) {
  ASSERT_EQ(A.Clusters.size(), B.Clusters.size());
  for (size_t I = 0; I < A.Clusters.size(); ++I) {
    const core::ClusterRunResult &X = A.Clusters[I];
    const core::ClusterRunResult &Y = B.Clusters[I];
    EXPECT_EQ(X.PointerCount, Y.PointerCount) << "cluster " << I;
    EXPECT_EQ(X.SliceSize, Y.SliceSize) << "cluster " << I;
    EXPECT_EQ(X.CostKey, Y.CostKey) << "cluster " << I;
    EXPECT_EQ(X.Steps, Y.Steps) << "cluster " << I;
    EXPECT_EQ(X.SummaryTuples, Y.SummaryTuples) << "cluster " << I;
    EXPECT_EQ(X.SummaryKeys, Y.SummaryKeys) << "cluster " << I;
    EXPECT_EQ(X.DepthLevels, Y.DepthLevels) << "cluster " << I;
    EXPECT_EQ(X.FsciQueries, Y.FsciQueries) << "cluster " << I;
    EXPECT_EQ(X.DovetailComplete, Y.DovetailComplete) << "cluster " << I;
    EXPECT_EQ(X.BudgetHit, Y.BudgetHit) << "cluster " << I;
    EXPECT_EQ(X.Approximated, Y.Approximated) << "cluster " << I;
  }
}

} // namespace

//===--------------------------------------------------------------------===//
// Key derivation
//===--------------------------------------------------------------------===//

namespace {

/// One function in the dependency scope of a cluster over main's
/// pointers (main), one outside it (other). The placeholders pick
/// main's statement order, gp's target (a Steensgaard fact main reads
/// through z = gp), and u's target (a fact nothing in main reaches).
/// Every variant declares the same variables and statement counts, so
/// all VarIds and LocIds agree across variants.
std::unique_ptr<ir::Program> scopeProgram(bool SwapMain, const char *GpTarget,
                                          const char *UTarget) {
  std::string Main = SwapMain ? "y = &b;\n x = &a;\n" : "x = &a;\n y = &b;\n";
  std::string Src = "int g1; int g2; int *gp;\n"
                    "void main(void) {\n int a; int b; int *x; int *y; "
                    "int *z;\n" +
                    Main +
                    " z = gp;\n}\n"
                    "void other(void) {\n int c; int d; int *u;\n gp = &" +
                    GpTarget + ";\n u = &" + UTarget + ";\n}\n";
  frontend::Diagnostics Diags;
  auto P = frontend::compileString(Src, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.toString();
  return P;
}

/// The dependency-scope key of \p C over a freshly solved \p P.
support::Digest scopeKeyOf(const ir::Program &P, const core::Cluster &C,
                           const fscs::SummaryEngine::Options &Opts) {
  ir::CallGraph CG(P);
  analysis::SteensgaardAnalysis S(P);
  S.run();
  return core::ScopeKeyIndex(P, CG, S).key(C, Opts);
}

} // namespace

TEST(SummaryCacheKey, SensitiveToEveryInput) {
  auto P = scopeProgram(false, "g1", "c");
  ASSERT_TRUE(P);
  ir::VarId X = P->findVariable("main::x");
  ir::VarId Y = P->findVariable("main::y");
  ASSERT_NE(X, ir::InvalidVar);
  ASSERT_NE(Y, ir::InvalidVar);
  const ir::Function &Main = P->func(P->findFunction("main"));

  core::Cluster C;
  C.Members = {X};
  fscs::SummaryEngine::Options Opts;

  support::Digest Base = scopeKeyOf(*P, C, Opts);
  EXPECT_EQ(Base, scopeKeyOf(*P, C, Opts))
      << "key must be a pure function of its inputs";

  // Cluster identity.
  core::Cluster C2 = C;
  C2.Members.push_back(Y);
  EXPECT_NE(Base, scopeKeyOf(*P, C2, Opts));
  core::Cluster C3 = C;
  C3.Statements.push_back(Main.Locations[1]);
  EXPECT_NE(Base, scopeKeyOf(*P, C3, Opts));
  core::Cluster C4 = C;
  C4.TrackedRefs.push_back(ir::Ref::deref(X));
  EXPECT_NE(Base, scopeKeyOf(*P, C4, Opts));

  // Every engine option.
  fscs::SummaryEngine::Options O2 = Opts;
  O2.StepBudget = 123;
  EXPECT_NE(Base, scopeKeyOf(*P, C, O2));
  fscs::SummaryEngine::Options O3 = Opts;
  O3.MaxCondAtoms += 1;
  EXPECT_NE(Base, scopeKeyOf(*P, C, O3));
  fscs::SummaryEngine::Options O4 = Opts;
  O4.MaxResultsPerKey += 1;
  EXPECT_NE(Base, scopeKeyOf(*P, C, O4));
  fscs::SummaryEngine::Options O5 = Opts;
  O5.MaxDerefFanout += 1;
  EXPECT_NE(Base, scopeKeyOf(*P, C, O5));

  // One body in D: reordering main keeps every Steensgaard fact.
  auto Swapped = scopeProgram(true, "g1", "c");
  ASSERT_TRUE(Swapped);
  EXPECT_NE(Base, scopeKeyOf(*Swapped, C, Opts));

  // One relevant Steensgaard fact, changed from outside D: main reads
  // gp, whose pointee partition moves from g1 to g2.
  auto Retargeted = scopeProgram(false, "g2", "c");
  ASSERT_TRUE(Retargeted);
  EXPECT_NE(Base, scopeKeyOf(*Retargeted, C, Opts));

  // An edit outside D that touches no relevant fact keeps the key, even
  // though the whole-program fingerprint and the partition numbering
  // change.
  auto Outside = scopeProgram(false, "g1", "d");
  ASSERT_TRUE(Outside);
  EXPECT_NE(core::programFingerprint(*P), core::programFingerprint(*Outside));
  EXPECT_EQ(Base, scopeKeyOf(*Outside, C, Opts));
}

TEST(SummaryCacheKey, ProgramFingerprintSeparatesPrograms) {
  auto A = generate(21);
  auto B = generate(22);
  ASSERT_TRUE(A && B);
  EXPECT_NE(core::programFingerprint(*A), core::programFingerprint(*B));
  EXPECT_EQ(core::programFingerprint(*A), core::programFingerprint(*A));

  // Scope keys hash the entry function, which every scope contains, so
  // no run of one program can replay as a run of the other.
  auto KeysOf = [](const ir::Program &P) {
    core::BootstrapOptions Opts = baseOptions();
    Opts.SummaryCache = std::make_shared<fscs::SummaryCache>();
    core::BootstrapResult R = core::BootstrapDriver(P, Opts).runAll();
    std::set<std::pair<uint64_t, uint64_t>> Keys;
    for (const core::ClusterRunResult &C : R.Clusters) {
      EXPECT_NE(C.Key, support::Digest{});
      Keys.insert({C.Key.Hi, C.Key.Lo});
    }
    return Keys;
  };
  std::set<std::pair<uint64_t, uint64_t>> KA = KeysOf(*A), KB = KeysOf(*B);
  ASSERT_FALSE(KA.empty());
  for (const auto &K : KA)
    EXPECT_EQ(KB.count(K), 0u);
}

//===--------------------------------------------------------------------===//
// Slice cache
//===--------------------------------------------------------------------===//

TEST(SliceCache, CachedSliceEqualsRecomputation) {
  auto P = generate(31);
  ASSERT_TRUE(P);
  analysis::SteensgaardAnalysis S(*P);
  S.run();
  core::SliceIndex Index(*P, S);
  uint64_t FP = core::programFingerprint(*P);
  core::SliceCache Cache;

  core::Cluster Plain = core::wholeProgramCluster(*P);
  core::Cluster Cold = Plain;
  core::Cluster Warm = Plain;

  core::attachRelevantSlice(*P, S, Plain, Index);
  core::attachRelevantSlice(*P, S, Cold, Index, &Cache, FP);
  core::attachRelevantSlice(*P, S, Warm, Index, &Cache, FP);

  EXPECT_EQ(Plain.Statements, Cold.Statements);
  EXPECT_EQ(Plain.TrackedRefs, Cold.TrackedRefs);
  EXPECT_EQ(Plain.Statements, Warm.Statements);
  EXPECT_EQ(Plain.TrackedRefs, Warm.TrackedRefs);

  support::CacheCounters C = Cache.counters();
  EXPECT_EQ(C.Misses, 1u);
  EXPECT_EQ(C.Hits, 1u);
  EXPECT_EQ(C.Inserts, 1u);
  EXPECT_GT(C.Bytes, 0u);
}

//===--------------------------------------------------------------------===//
// Cache-on vs cache-off, sequential
//===--------------------------------------------------------------------===//

TEST(SummaryCache, HitsReplayRecomputationBitForBit) {
  auto P = generate(41);
  ASSERT_TRUE(P);

  core::BootstrapResult Off = runIsolated(*P, baseOptions());
  std::string OffJson = replayableJson(Off);
  for (const core::ClusterRunResult &C : Off.Clusters)
    EXPECT_FALSE(C.FromCache);

  core::BootstrapOptions Cached = baseOptions();
  Cached.SummaryCache = std::make_shared<fscs::SummaryCache>();
  Cached.RelevantSliceCache = std::make_shared<core::SliceCache>();

  // Cold pass: every cluster misses, computes, publishes.
  core::BootstrapResult Cold = runIsolated(*P, Cached);
  std::string ColdJson = replayableJson(Cold);
  EXPECT_EQ(Cold.SummaryCacheReport.Counters.Hits, 0u);
  EXPECT_EQ(Cold.SummaryCacheReport.Counters.Misses, Cold.Clusters.size());
  for (const core::ClusterRunResult &C : Cold.Clusters)
    EXPECT_FALSE(C.FromCache);

  // Warm pass: every cluster replays from the cache.
  core::BootstrapResult Warm = runIsolated(*P, Cached);
  std::string WarmJson = replayableJson(Warm);
  EXPECT_EQ(Warm.SummaryCacheReport.Counters.Hits, Warm.Clusters.size());
  for (const core::ClusterRunResult &C : Warm.Clusters)
    EXPECT_TRUE(C.FromCache);

  expectSameClusterMetrics(Off, Cold);
  expectSameClusterMetrics(Off, Warm);
  // Byte-identical modulo wall-clock and cache provenance -- including
  // the global Statistics section, i.e. the replayed accounting matches
  // real accumulation exactly.
  EXPECT_EQ(OffJson, ColdJson);
  EXPECT_EQ(OffJson, WarmJson);
}

TEST(SummaryCache, StatsJsonReportsCacheCounters) {
  auto P = generate(43);
  ASSERT_TRUE(P);
  core::BootstrapOptions Opts = baseOptions();
  Opts.SummaryCache = std::make_shared<fscs::SummaryCache>();
  Opts.RelevantSliceCache = std::make_shared<core::SliceCache>();
  runIsolated(*P, Opts);
  core::BootstrapResult Warm = runIsolated(*P, Opts);

  std::string Json = core::toStatsJson(Warm);
  EXPECT_NE(Json.find("\"summary_cache\": {\"enabled\": true"),
            std::string::npos);
  EXPECT_NE(Json.find("\"slice_cache\": {\"enabled\": true"),
            std::string::npos);
  EXPECT_NE(Json.find("\"from_cache\": true"), std::string::npos);
  EXPECT_GT(Warm.SummaryCacheReport.Counters.hitRate(), 0.0);

  // Cache-off runs advertise the sections as disabled rather than
  // silently dropping them.
  core::BootstrapResult Off = runIsolated(*P, baseOptions());
  std::string OffJson = core::toStatsJson(Off);
  EXPECT_NE(OffJson.find("\"summary_cache\": {\"enabled\": false"),
            std::string::npos);
}

TEST(SummaryCache, DovetailStatsReplayedOnHits) {
  // Regression for the dovetail accounting on cache hits: a replayed
  // cluster must re-accumulate the dovetail statistics its original
  // run published, or warm runs under-report
  // fscs.dovetail-depth-levels / -fsci-queries and the stats JSON
  // diverges from recomputation.
  auto P = generate(59);
  ASSERT_TRUE(P);

  auto DovetailCounters = [] {
    std::pair<uint64_t, uint64_t> Out{0, 0};
    for (const auto &[Name, Value] : Statistics::global().snapshot()) {
      if (Name == "fscs.dovetail-depth-levels")
        Out.first = Value;
      else if (Name == "fscs.dovetail-fsci-queries")
        Out.second = Value;
    }
    return Out;
  };

  runIsolated(*P, baseOptions());
  auto Off = DovetailCounters();
  // Non-vacuous: the workload actually exercises the dovetail.
  ASSERT_GT(Off.first, 0u);
  ASSERT_GT(Off.second, 0u);

  core::BootstrapOptions Cached = baseOptions();
  Cached.SummaryCache = std::make_shared<fscs::SummaryCache>();
  core::BootstrapResult Cold = runIsolated(*P, Cached);
  auto ColdCounters = DovetailCounters();
  core::BootstrapResult Warm = runIsolated(*P, Cached);
  auto WarmCounters = DovetailCounters();
  EXPECT_EQ(Warm.SummaryCacheReport.Counters.Hits, Warm.Clusters.size());

  EXPECT_EQ(Off, ColdCounters);
  EXPECT_EQ(Off, WarmCounters);
  // The per-cluster view agrees with the registry view.
  uint64_t FromClusters = 0;
  for (const core::ClusterRunResult &C : Warm.Clusters)
    FromClusters += C.FsciQueries;
  EXPECT_EQ(FromClusters, WarmCounters.second);
  (void)Cold;
}

//===--------------------------------------------------------------------===//
// Adopted state answers queries like the engine that exported it
//===--------------------------------------------------------------------===//

TEST(SummaryCache, AdoptedStateAnswersQueriesIdentically) {
  auto P = generate(47);
  ASSERT_TRUE(P);
  ir::CallGraph CG(*P);
  analysis::SteensgaardAnalysis S(*P);
  S.run();
  core::Cluster Whole = core::wholeProgramCluster(*P);

  fscs::SummaryEngine::Options Opts;
  Opts.StepBudget = 20000;
  fscs::ClusterAliasAnalysis Fresh(*P, CG, S, Whole, Opts);
  Fresh.prepare();
  ASSERT_FALSE(Fresh.engine().stats().flagged());

  fscs::ClusterAliasAnalysis Adopted(*P, CG, S, Whole, Opts);
  Adopted.adoptState(Fresh.engine().exportState(), Fresh.dovetailStats());

  for (ir::VarId V = 0; V < P->numVars(); ++V) {
    if (!P->var(V).isPointer())
      continue;
    ir::FuncId Owner = P->var(V).Owner != ir::InvalidFunc
                           ? P->var(V).Owner
                           : P->entryFunction();
    if (Owner == ir::InvalidFunc)
      continue;
    ir::LocId At = P->func(Owner).Exit;
    auto A = Fresh.pointsTo(V, At);
    auto B = Adopted.pointsTo(V, At);
    EXPECT_EQ(A.Objects, B.Objects) << P->var(V).Name;
    EXPECT_EQ(A.Complete, B.Complete) << P->var(V).Name;
  }
  // Both engines ended in the same accounting state: the queries above
  // advanced them in lockstep.
  fscs::SummaryEngine::EngineStats EA = Fresh.engine().stats();
  fscs::SummaryEngine::EngineStats EB = Adopted.engine().stats();
  EXPECT_EQ(EA.Steps, EB.Steps);
  EXPECT_EQ(EA.SummaryTuples, EB.SummaryTuples);
  EXPECT_EQ(EA.Keys, EB.Keys);
  EXPECT_EQ(EA.BudgetHit, EB.BudgetHit);
  EXPECT_EQ(EA.Approximated, EB.Approximated);
}

//===--------------------------------------------------------------------===//
// Export equivalence: the lean export answers like the live engine
//===--------------------------------------------------------------------===//

namespace {

bool sameTuples(const std::vector<fscs::SummaryTuple> &A,
                const std::vector<fscs::SummaryTuple> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!(A[I].Anchor == B[I].Anchor) || A[I].AnchorLoc != B[I].AnchorLoc ||
        !(A[I].Origin == B[I].Origin) || !(A[I].Cond == B[I].Cond))
      return false;
  return true;
}

} // namespace

TEST(SummaryCache, LeanExportAnswersLikeTheLiveEngineOn100Seeds) {
  // Every run goes through the store codec. A flagged run's record
  // keeps its accounting and no state. For an unflagged run, a live
  // engine and a fresh one importing its export receive the same
  // follow-up queries, including ones that create new keys; every
  // answer and all accounting must agree. Small step budgets make
  // budget-hit runs.
  const uint64_t Budgets[] = {40, 150, 600, 3000, 20000};
  unsigned Unflagged = 0, BudgetHit = 0;
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    auto P = generate(Seed);
    ASSERT_TRUE(P);
    ir::CallGraph CG(*P);
    analysis::SteensgaardAnalysis S(*P);
    S.run();
    core::Cluster Whole = core::wholeProgramCluster(*P);
    fscs::SummaryEngine::Options Opts;
    Opts.StepBudget = Budgets[Seed % 5];

    // The driver's workload: dovetail, then every pointer at its exit.
    fscs::ClusterAliasAnalysis Live(*P, CG, S, Whole, Opts);
    Live.prepare();
    for (ir::VarId V = 0; V < P->numVars(); ++V) {
      const ir::Variable &Var = P->var(V);
      ir::FuncId Owner =
          Var.Owner != ir::InvalidFunc ? Var.Owner : P->entryFunction();
      if (!Var.isPointer() || Owner == ir::InvalidFunc)
        continue;
      Live.pointsTo(V, P->func(Owner).Exit);
      if (Live.engine().budgetExhausted())
        break;
    }

    fscs::CachedClusterRun Run = fscs::CachedClusterRun::of(Live);
    const fscs::SummaryEngine::State &Ex = Run.Engine;
    const bool Flagged = Run.Stats.flagged();
    Unflagged += !Flagged;
    BudgetHit += Run.Stats.BudgetHit;
    if (Flagged) {
      EXPECT_TRUE(Ex.Keys.empty() && Ex.KeyIndex.empty() &&
                  Ex.FsciMemo.empty() && Ex.Steps == 0)
          << "seed " << Seed << ": a flagged run keeps its state";
    }
    EXPECT_FALSE(Ex.BudgetHit || Ex.Approximated) << "seed " << Seed;
    for (const fscs::SummaryEngine::KeyState &K : Ex.Keys) {
      EXPECT_TRUE(K.Seen.empty() && K.WL.empty() && K.Waiters.empty() &&
                  K.ResultHashes.empty())
          << "seed " << Seed << ": export carries scaffolding";
    }

    support::ByteWriter W;
    fscs::encodeCachedClusterRun(Run, W);
    fscs::CachedClusterRun Back;
    ASSERT_TRUE(fscs::decodeCachedClusterRun(W.bytes().data(),
                                             W.bytes().size(), Back))
        << "seed " << Seed;
    support::ByteWriter W2;
    fscs::encodeCachedClusterRun(Back, W2);
    ASSERT_EQ(W.bytes(), W2.bytes()) << "seed " << Seed;
    // A cache hit replays these, whatever the run's shape.
    const fscs::SummaryEngine::EngineStats Want = Live.engine().stats();
    EXPECT_TRUE(Back.Stats.Steps == Want.Steps &&
                Back.Stats.SummaryTuples == Want.SummaryTuples &&
                Back.Stats.Keys == Want.Keys &&
                Back.Stats.BudgetHit == Want.BudgetHit &&
                Back.Stats.Approximated == Want.Approximated)
        << "seed " << Seed;
    EXPECT_TRUE(Back.Dove.DepthLevels == Live.dovetailStats().DepthLevels &&
                Back.Dove.FsciQueries == Live.dovetailStats().FsciQueries &&
                Back.Dove.Complete == Live.dovetailStats().Complete)
        << "seed " << Seed;
    if (Flagged)
      continue;
    fscs::ClusterAliasAnalysis Adopted(*P, CG, S, Whole, Opts);
    Adopted.adoptState(std::move(Back.Engine), Back.Dove);

    fscs::SummaryEngine &A = Live.engine();
    fscs::SummaryEngine &B = Adopted.engine();
    std::mt19937_64 Rng(Seed * 7919);
    for (int Q = 0; Q < 40; ++Q) {
      ir::LocId L = static_cast<ir::LocId>(Rng() % P->numLocs());
      ir::VarId V = static_cast<ir::VarId>(Rng() % P->numVars());
      switch (Rng() % 3) {
      case 0: { // Often a new key.
        ir::Ref R{V, static_cast<int8_t>(int(Rng() % 3) - 1)};
        EXPECT_TRUE(sameTuples(A.summaryAt(L, R), B.summaryAt(L, R)))
            << "seed " << Seed << " query " << Q;
        break;
      }
      case 1: { // An exported key.
        if (Ex.Keys.empty())
          break;
        const fscs::SummaryEngine::KeyState &K =
            Ex.Keys[Rng() % Ex.Keys.size()];
        EXPECT_TRUE(sameTuples(A.summaryAt(K.AnchorLoc, K.R),
                               B.summaryAt(K.AnchorLoc, K.R)))
            << "seed " << Seed << " query " << Q;
        break;
      }
      default:
        EXPECT_EQ(A.fsciPointsTo(V, L), B.fsciPointsTo(V, L))
            << "seed " << Seed << " query " << Q;
        break;
      }
      ASSERT_EQ(A.stepsUsed(), B.stepsUsed()) << "seed " << Seed << " " << Q;
      ASSERT_EQ(A.numSummaryTuples(), B.numSummaryTuples())
          << "seed " << Seed << " query " << Q;
      ASSERT_EQ(A.budgetExhausted(), B.budgetExhausted()) << "seed " << Seed;
      ASSERT_EQ(A.hasApproximation(), B.hasApproximation())
          << "seed " << Seed;
    }
  }
  // Both record shapes occurred.
  EXPECT_GT(Unflagged, 0u);
  EXPECT_GT(BudgetHit, 0u);
}

//===--------------------------------------------------------------------===//
// Cache-on vs cache-off under the thread pool
//===--------------------------------------------------------------------===//

TEST(SummaryCache, ThreadedHitsMatchSequentialRecomputation) {
  auto P = generate(53);
  ASSERT_TRUE(P);

  core::BootstrapResult Off = runIsolated(*P, baseOptions());
  std::string OffJson = replayableJson(Off);

  core::BootstrapOptions Threaded = baseOptions();
  Threaded.Threads = 4;
  Threaded.SummaryCache = std::make_shared<fscs::SummaryCache>();
  Threaded.RelevantSliceCache = std::make_shared<core::SliceCache>();

  // Cold threaded pass: workers race to publish (first insert wins);
  // warm threaded pass: workers replay concurrently from shared shards.
  core::BootstrapResult Cold = runIsolated(*P, Threaded);
  core::BootstrapResult Warm = runIsolated(*P, Threaded);

  expectSameClusterMetrics(Off, Cold);
  expectSameClusterMetrics(Off, Warm);
  EXPECT_EQ(OffJson, replayableJson(Cold));
  EXPECT_EQ(OffJson, replayableJson(Warm));
  EXPECT_EQ(Warm.SummaryCacheReport.Counters.Hits,
            Warm.Clusters.size() + Cold.SummaryCacheReport.Counters.Hits);
}

//===--------------------------------------------------------------------===//
// Pinned engine output
//===--------------------------------------------------------------------===//

namespace {

/// Each cluster's "steps/tuples/keys/budget-hit/approximated" in cover
/// order, and one digest over every cluster's encoded cached run.
struct PinnedRun {
  std::string Clusters;
  support::Digest Bytes;
};

PinnedRun pinRun(uint64_t Seed, uint64_t StepBudget,
                 size_t MaxResultsPerKey) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.NumFunctions = 12;
  Cfg.StmtsPerFunction = 16;
  Cfg.Communities = 3;
  Cfg.RecursionPercent = 15;
  frontend::Diagnostics Diags;
  auto P = frontend::compileString(workload::generateProgram(Cfg), Diags);
  EXPECT_TRUE(P != nullptr) << Diags.toString();
  core::BootstrapOptions Opts = baseOptions();
  Opts.EngineOpts.StepBudget = StepBudget;
  Opts.EngineOpts.MaxResultsPerKey = MaxResultsPerKey;
  Opts.SummaryCache = std::make_shared<fscs::SummaryCache>();
  core::BootstrapResult R = runIsolated(*P, Opts);
  PinnedRun Out;
  support::ContentHasher H;
  for (const core::ClusterRunResult &C : R.Clusters) {
    Out.Clusters += std::to_string(C.Steps) + "/" +
                    std::to_string(C.SummaryTuples) + "/" +
                    std::to_string(C.SummaryKeys) + "/" +
                    std::to_string(int(C.BudgetHit)) +
                    std::to_string(int(C.Approximated)) + " ";
    auto Run = Opts.SummaryCache->lookup(C.Key);
    EXPECT_TRUE(Run != nullptr) << "seed " << Seed;
    if (!Run)
      continue;
    support::ByteWriter W;
    fscs::encodeCachedClusterRun(*Run, W);
    H.bytes(W.bytes().data(), W.bytes().size());
  }
  Out.Bytes = H.digest();
  return Out;
}

} // namespace

TEST(SummaryEngine, PinnedStepsTuplesAndStoreBytes) {
  // What the engine produced on these inputs when its conditions, hash
  // sets and worklists were still node- and heap-based containers. The
  // memory layout may change; the traversal and every tuple may not.
  // The byte digests are of summary codec version 3; each unflagged
  // record holds exactly the sections of its version-2 record, and a
  // flagged one its accounting alone. The MaxResultsPerKey = 2 rows
  // collapse almost every key to unconditional results, so nearly every
  // splice feeds a full dependent key; they were captured from the
  // engine that still merged every such feed. Every row was re-pinned
  // when the cascade's engines began consulting the slice's Andersen
  // oracle: the forks it prunes move steps, tuples and bytes.
  struct Pinned {
    uint64_t Seed;
    uint64_t StepBudget;
    size_t MaxResultsPerKey;
    const char *Clusters;
    support::Digest Bytes;
  };
  const Pinned Runs[] = {
      {61, 0, 48,
       "13086/4762/751/00 9310/4422/534/00 8527/4251/436/00 "
       "845/117/117/00 1747/267/201/00 4265/942/450/00 "
       "2477/364/271/00 874/119/119/00 879/119/119/00 "
       "882/119/119/00 866/119/119/00 2/1/1/00 2/1/1/00 2/1/1/00 "
       "2/1/1/00 2/1/1/00 2/1/1/00 62/31/31/00 2/1/1/00 62/31/31/00 "
       "62/31/31/00 2/1/1/00 2/1/1/00 62/31/31/00 62/31/31/00 "
       "62/31/31/00 62/31/31/00 62/31/31/00 ",
       {0x63bcabf0971aad38ull, 0xd9ee58998e14a311ull}},
      {61, 2000, 48,
       "2000/332/174/10 2000/1378/148/10 2000/1378/148/10 "
       "845/117/117/00 1747/267/201/00 2000/300/229/10 "
       "2000/275/220/10 874/119/119/00 879/119/119/00 "
       "882/119/119/00 866/119/119/00 2/1/1/00 2/1/1/00 2/1/1/00 "
       "2/1/1/00 2/1/1/00 2/1/1/00 62/31/31/00 2/1/1/00 62/31/31/00 "
       "62/31/31/00 2/1/1/00 2/1/1/00 62/31/31/00 62/31/31/00 "
       "62/31/31/00 62/31/31/00 62/31/31/00 ",
       {0x02fa20f0e7253d5full, 0x6c37037866d84d77ull}},
      {67, 0, 48,
       "700/71/65/00 740/73/67/00 305/30/30/00 5002/1014/542/00 "
       "867/113/113/00 662/83/83/00 51613/11069/665/00 "
       "51493/11058/659/00 908/92/92/00 2/1/1/00 2/1/1/00 2/1/1/00 "
       "2/1/1/00 2/1/1/00 2/1/1/00 2/1/1/00 2/1/1/00 10/5/5/00 "
       "10/5/5/00 58/29/29/00 58/29/29/00 58/29/29/00 58/29/29/00 "
       "6/3/3/00 58/29/29/00 58/29/29/00 58/29/29/00 58/29/29/00 "
       "58/29/29/00 6/3/3/00 ",
       {0x1b6713256bd21c26ull, 0xd95eacc102074aaeull}},
      {67, 2000, 48,
       "700/71/65/00 740/73/67/00 305/30/30/00 2000/314/210/10 "
       "867/113/113/00 662/83/83/00 2000/249/173/10 2000/249/173/10 "
       "908/92/92/00 2/1/1/00 2/1/1/00 2/1/1/00 2/1/1/00 2/1/1/00 "
       "2/1/1/00 2/1/1/00 2/1/1/00 10/5/5/00 10/5/5/00 58/29/29/00 "
       "58/29/29/00 58/29/29/00 58/29/29/00 6/3/3/00 58/29/29/00 "
       "58/29/29/00 58/29/29/00 58/29/29/00 58/29/29/00 6/3/3/00 ",
       {0x85bb08ac180f4fccull, 0x267ae759286476e4ull}},
      {71, 0, 48,
       "65778/6265/1111/00 55170/5488/649/00 9374/599/479/00 "
       "9155/587/470/00 10289/635/516/00 3289/216/216/00 "
       "3289/216/216/00 3285/216/216/00 2963/195/195/00 2/1/1/00 "
       "2/1/1/00 2/1/1/00 2/1/1/00 2/1/1/00 2/1/1/00 10/5/5/00 "
       "10/5/5/00 44/22/22/00 44/22/22/00 44/22/22/00 44/22/22/00 "
       "46/23/23/00 46/23/23/00 50/25/25/00 50/25/25/00 44/22/22/00 "
       "8/4/4/00 50/25/25/00 50/25/25/00 50/25/25/00 ",
       {0x376ea7c7c3c82f4bull, 0x07a684e05270a9d7ull}},
      {71, 2000, 48,
       "2000/139/146/10 2000/139/146/10 2000/139/146/10 "
       "2000/139/146/10 2000/139/146/10 2000/139/146/10 "
       "2000/139/146/10 2000/139/146/10 2000/139/146/10 2/1/1/00 "
       "2/1/1/00 2/1/1/00 2/1/1/00 2/1/1/00 2/1/1/00 10/5/5/00 "
       "10/5/5/00 44/22/22/00 44/22/22/00 44/22/22/00 44/22/22/00 "
       "46/23/23/00 46/23/23/00 50/25/25/00 50/25/25/00 44/22/22/00 "
       "8/4/4/00 50/25/25/00 50/25/25/00 50/25/25/00 ",
       {0x722d81473fd89e3full, 0xc52e9e29e5649915ull}},
      {61, 0, 2,
       "11538/2664/751/00 7077/1902/534/00 6294/1731/436/00 "
       "845/117/117/00 1747/274/201/00 4265/946/450/00 "
       "2477/371/271/00 874/119/119/00 879/119/119/00 "
       "882/119/119/00 866/119/119/00 2/1/1/00 2/1/1/00 2/1/1/00 "
       "2/1/1/00 2/1/1/00 2/1/1/00 62/31/31/00 2/1/1/00 62/31/31/00 "
       "62/31/31/00 2/1/1/00 2/1/1/00 62/31/31/00 62/31/31/00 "
       "62/31/31/00 62/31/31/00 62/31/31/00 ",
       {0x2a28fca19afb0aa2ull, 0xaf0d8b60769201e7ull}},
      {61, 2000, 2,
       "2000/341/174/10 2000/604/153/10 2000/604/153/10 "
       "845/117/117/00 1747/274/201/00 2000/304/229/10 "
       "2000/282/220/10 874/119/119/00 879/119/119/00 "
       "882/119/119/00 866/119/119/00 2/1/1/00 2/1/1/00 2/1/1/00 "
       "2/1/1/00 2/1/1/00 2/1/1/00 62/31/31/00 2/1/1/00 62/31/31/00 "
       "62/31/31/00 2/1/1/00 2/1/1/00 62/31/31/00 62/31/31/00 "
       "62/31/31/00 62/31/31/00 62/31/31/00 ",
       {0x167b78cb53860f96ull, 0x5b9dca084659259eull}},
      {67, 0, 2,
       "700/70/65/00 740/72/67/00 305/30/30/00 4944/975/542/00 "
       "867/113/113/00 662/83/83/00 17658/2652/665/00 "
       "17538/2641/659/00 908/92/92/00 2/1/1/00 2/1/1/00 2/1/1/00 "
       "2/1/1/00 2/1/1/00 2/1/1/00 2/1/1/00 2/1/1/00 10/5/5/00 "
       "10/5/5/00 58/29/29/00 58/29/29/00 58/29/29/00 58/29/29/00 "
       "6/3/3/00 58/29/29/00 58/29/29/00 58/29/29/00 58/29/29/00 "
       "58/29/29/00 6/3/3/00 ",
       {0x078d4349c2f81e1dull, 0x563ff93d91621441ull}},
      {71, 0, 2,
       "35684/2880/1111/00 25076/2185/649/00 9374/599/479/00 "
       "9155/587/470/00 10289/635/516/00 3289/216/216/00 "
       "3289/216/216/00 3285/216/216/00 2963/195/195/00 2/1/1/00 "
       "2/1/1/00 2/1/1/00 2/1/1/00 2/1/1/00 2/1/1/00 10/5/5/00 "
       "10/5/5/00 44/22/22/00 44/22/22/00 44/22/22/00 44/22/22/00 "
       "46/23/23/00 46/23/23/00 50/25/25/00 50/25/25/00 44/22/22/00 "
       "8/4/4/00 50/25/25/00 50/25/25/00 50/25/25/00 ",
       {0x32ee085bbff49798ull, 0xb31b42e50a2c41d3ull}},
  };
  for (const Pinned &Want : Runs) {
    PinnedRun Got = pinRun(Want.Seed, Want.StepBudget, Want.MaxResultsPerKey);
    EXPECT_EQ(Got.Clusters, Want.Clusters)
        << "seed " << Want.Seed << " budget " << Want.StepBudget
        << " results cap " << Want.MaxResultsPerKey;
    EXPECT_TRUE(Got.Bytes == Want.Bytes)
        << "seed " << Want.Seed << " budget " << Want.StepBudget
        << " results cap " << Want.MaxResultsPerKey
        << ": encoded cluster runs moved, now " << std::hex << "{0x"
        << Got.Bytes.Hi << "ull, 0x" << Got.Bytes.Lo << "ull}";
  }
}

TEST(ScopeKeyIndex, PinnedKeys) {
  // One digest over the scope key of every cluster of the pinned-run
  // covers (the programs of PinnedStepsTuplesAndStoreBytes), captured
  // while key() still numbered hierarchy nodes through a per-call map.
  // Re-pinned once, for the tag bump to "SCOPEKY3" that retires records
  // of the Steensgaard-only engine; nothing else in key() moved.
  // Persisted store records are addressed by these keys, so a change to
  // how key() computes them must not move one bit. The keys are also
  // recomputed from four threads at once: key() keeps no state across
  // calls, so every thread must see the serial keys.
  const std::pair<uint64_t, support::Digest> Pinned[] = {
      {61, {0xd7347cfd3859e0beull, 0x783d78cd1ba55c4aull}},
      {67, {0xf53f6eee4cca57afull, 0xf04cca3f1ee9d942ull}},
      {71, {0x4e2358ed9f4dd31cull, 0x8404ebbdc75734e5ull}},
  };
  for (const auto &[Seed, Want] : Pinned) {
    workload::GeneratorConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.NumFunctions = 12;
    Cfg.StmtsPerFunction = 16;
    Cfg.Communities = 3;
    Cfg.RecursionPercent = 15;
    frontend::Diagnostics Diags;
    auto P = frontend::compileString(workload::generateProgram(Cfg), Diags);
    ASSERT_TRUE(P != nullptr) << Diags.toString();
    core::BootstrapOptions Opts = baseOptions();
    Opts.EngineOpts.StepBudget = 0;
    core::BootstrapDriver Driver(*P, Opts);
    std::shared_ptr<const core::SolvedCover> Cover = Driver.buildSolvedCover();
    core::ScopeKeyIndex Index(*P, *Cover->CG, *Cover->Steens);
    const std::vector<core::Cluster> &Clusters = Cover->Clusters;

    std::vector<support::Digest> Serial;
    support::ContentHasher H;
    for (const core::Cluster &C : Clusters) {
      Serial.push_back(Index.key(C, Opts.EngineOpts));
      H.u64(Serial.back().Hi).u64(Serial.back().Lo);
    }
    support::Digest Got = H.digest();
    EXPECT_TRUE(Got == Want) << "seed " << Seed << ": scope keys moved, now "
                             << std::hex << "{0x" << Got.Hi << "ull, 0x"
                             << Got.Lo << "ull}";

    std::vector<std::vector<support::Digest>> PerThread(4);
    std::vector<std::thread> Threads;
    for (uint32_t T = 0; T < 4; ++T)
      Threads.emplace_back([&, T] {
        // Every thread computes every key, each in its own order.
        for (size_t I = 0; I < Clusters.size(); ++I) {
          size_t J = (I + T * Clusters.size() / 4) % Clusters.size();
          PerThread[T].push_back(Index.key(Clusters[J], Opts.EngineOpts));
        }
      });
    for (std::thread &Th : Threads)
      Th.join();
    for (uint32_t T = 0; T < 4; ++T)
      for (size_t I = 0; I < Clusters.size(); ++I) {
        size_t J = (I + T * Clusters.size() / 4) % Clusters.size();
        EXPECT_TRUE(PerThread[T][I] == Serial[J])
            << "seed " << Seed << " thread " << T << " cluster " << J;
      }
  }
}
