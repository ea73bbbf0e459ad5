//===- bench/query_throughput.cpp - Query-serving throughput --------------===//
//
// Measures the QueryEngine against the naive way of answering the same
// questions -- a whole-program FSCS pair loop (what
// analysis::countMayAliasPairs does, lifted to the FSCS engine): every
// may-alias pair query is answered by the monolithic analysis with no
// index and no clustering.
//
// The engine answers the identical query set through the inverted
// pointer->cluster index (cross-cluster pairs short-circuit without
// touching FSCS data) and lazily materialized per-cluster analyses
// (adopted from the cascade's summary cache). Reported:
//
//   * naive whole-program pair loop (cold engine, one prepare),
//   * QueryEngine cold (first pass: materialization included),
//   * QueryEngine warm (second pass over the same pairs),
//   * QueryEngine warm, multi-threaded batch.
//
// Usage: query_throughput [scale] [--stats-json] [--store DIR]
//                         [--cold-p99]
//
// --stats-json appends a machine-readable JSON document (timings,
// queries/sec, answer-source breakdown) on stdout -- CI uploads it as
// an artifact.
//
// --store DIR additionally runs the persistent-store restart ablation:
// a cold cascade with fresh caches writing through to the (initially
// empty) store at DIR, then a simulated restart -- all-fresh in-memory
// caches over a reopened store -- asserting the warm run is
// byte-identical in replayable stats and verdicts while reviving its
// summaries from disk. Exits nonzero on any divergence, so CI can gate
// on it directly.
//
// --cold-p99 runs the cold-cluster tail-latency ablation: the first
// touch of every cluster (one may-alias pair per cluster, no summary
// cache, so every materialization is genuinely cold) served by an
// eager snapshot vs a demand-mode snapshot with background promotion.
// Reports per-query p50/p99 for both, asserts every demand verdict
// equals the eager one (during the partial phase AND after promotions
// drain), and exits nonzero unless cold p99 improved at least 2x with
// zero mismatches -- the CI gate for the demand-serving path.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/AliasCover.h"
#include "core/BootstrapDriver.h"
#include "core/StoreCodecs.h"
#include "query/QueryEngine.h"
#include "support/Json.h"
#include "support/LatencyHistogram.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace bsaa;
using namespace bsaa::bench;

namespace {

/// The restart shape: every in-memory cache fresh, the store shared.
core::BootstrapOptions storeBackedOptions(const std::string &Dir) {
  core::BootstrapOptions O;
  O.SummaryCache = std::make_shared<fscs::SummaryCache>();
  O.RelevantSliceCache = std::make_shared<core::SliceCache>();
  O.AndersenRefinementCache = std::make_shared<core::RefinementCache>();
  O.StorePath = Dir;
  core::openStoreAndAttach(O);
  return O;
}

std::string replayableJson(const core::BootstrapResult &R) {
  core::StatsJsonOptions O;
  O.IncludeTimings = false;
  O.IncludeCacheStats = false;
  return core::toStatsJson(R, O);
}

} // namespace

int main(int Argc, char **Argv) {
  bool StatsJson = takeFlag(Argc, Argv, "--stats-json");
  bool ColdP99 = takeFlag(Argc, Argv, "--cold-p99");
  std::string StoreDir;
  if (const char *V = takeFlag(Argc, Argv, "--store", true))
    StoreDir = V;

  double Scale = scaleFromArgs(Argc, Argv, 0.25);
  workload::SuiteEntry Entry = workload::suiteEntry("autofs", Scale);
  std::shared_ptr<ir::Program> P(compileEntry(Entry));

  // The cascade the snapshot serves from; the shared summary cache is
  // what lets materialization replay instead of re-analyze.
  core::BootstrapOptions BOpts;
  BOpts.SummaryCache = std::make_shared<fscs::SummaryCache>();
  core::BootstrapDriver Driver(*P, BOpts);
  std::shared_ptr<const core::SolvedCover> Solved = Driver.buildSolvedCover();
  Timer CascadeT;
  core::BootstrapResult Result = Driver.runAll(Solved->Clusters);
  double CascadeSeconds = CascadeT.seconds();

  // The query set: every pointer pair, at its canonical location.
  std::vector<ir::VarId> Ptrs;
  for (ir::VarId V = 0; V < P->numVars(); ++V)
    if (P->var(V).isPointer())
      Ptrs.push_back(V);
  std::vector<query::MayAliasQuery> Batch;
  for (size_t I = 0; I < Ptrs.size(); ++I)
    for (size_t J = I + 1; J < Ptrs.size(); ++J)
      Batch.push_back({Ptrs[I], Ptrs[J], ir::InvalidLoc});
  size_t NumPairs = Batch.size();

  // Naive baseline: the monolithic FSCS analysis answers every pair.
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

  // Engine: cold pass (materialization on demand), warm pass, warm
  // multi-threaded batch -- all over the identical query set.
  query::QueryOptions QOpts;
  QOpts.EngineOpts = BOpts.EngineOpts;
  query::QueryEngine Engine;
  Engine.publish(query::QuerySnapshot::build(P, Solved, &Result.Clusters,
                                             QOpts, BOpts.SummaryCache));

  Timer ColdT;
  std::vector<uint8_t> ColdAnswers = Engine.evalMayAlias(Batch, 0);
  double ColdSeconds = ColdT.seconds();
  uint64_t EngineAliases = 0;
  for (uint8_t A : ColdAnswers)
    EngineAliases += A;

  Timer WarmT;
  (void)Engine.evalMayAlias(Batch, 0);
  double WarmSeconds = WarmT.seconds();

  unsigned HW = std::thread::hardware_concurrency();
  unsigned Threads = HW > 1 ? HW : 2;
  Timer MtT;
  (void)Engine.evalMayAlias(Batch, Threads);
  double MtSeconds = MtT.seconds();

  query::SnapshotStats St = Engine.snapshot()->stats();
  auto Qps = [NumPairs](double S) {
    return S > 0 ? static_cast<double>(NumPairs) / S : 0.0;
  };
  double Speedup = ColdSeconds > 0 ? NaiveSeconds / ColdSeconds : 0.0;

  // Persistent-store restart ablation (--store DIR).
  bool StoreRun = !StoreDir.empty();
  double StoreColdSeconds = 0, StoreWarmSeconds = 0, StoreHitRate = 0;
  unsigned long long StorePuts = 0, StoreHits = 0;
  unsigned long long StoreRecords = 0, StoreLiveBytes = 0;
  bool StoreStatsIdentical = false, StoreVerdictsIdentical = false;
  if (StoreRun) {
    // Cold lifetime: fresh caches over the (presumed empty) store.
    Statistics::global().clear();
    core::BootstrapOptions ColdO = storeBackedOptions(StoreDir);
    Timer ColdCascadeT;
    core::BootstrapDriver ColdD(*P, ColdO);
    core::BootstrapResult ColdR = ColdD.runAll();
    StoreColdSeconds = ColdCascadeT.seconds();
    std::string ColdJson = replayableJson(ColdR);
    StorePuts = ColdO.SummaryCache->counters().StorePuts;

    // Warm restart: all-fresh caches, the store reopened from disk.
    Statistics::global().clear();
    core::BootstrapOptions WarmO = storeBackedOptions(StoreDir);
    Timer WarmCascadeT;
    core::BootstrapDriver WarmD(*P, WarmO);
    std::shared_ptr<const core::SolvedCover> WarmSolved =
        WarmD.buildSolvedCover();
    core::BootstrapResult WarmR = WarmD.runAll(WarmSolved->Clusters);
    StoreWarmSeconds = WarmCascadeT.seconds();
    StoreStatsIdentical = replayableJson(WarmR) == ColdJson;
    support::CacheCounters C = WarmO.SummaryCache->counters();
    StoreHits = C.StoreHits;
    StoreHitRate = C.storeHitRate();
    support::CacheStoreCounters SC = WarmO.Store->counters();
    StoreRecords = SC.Records;
    StoreLiveBytes = SC.LiveBytes;

    // Verdict identity: serve the whole pair batch from the warm
    // cascade and compare against the storeless engine's answers.
    query::QueryEngine WarmEngine;
    WarmEngine.publish(query::QuerySnapshot::build(
        P, std::move(WarmSolved), &WarmR.Clusters, QOpts, WarmO.SummaryCache));
    StoreVerdictsIdentical = WarmEngine.evalMayAlias(Batch, 0) == ColdAnswers;
  }

  // Cold-cluster tail-latency ablation (--cold-p99): eager vs demand
  // serving over genuinely cold entries (no summary cache to adopt
  // from), one first-touch query per cluster.
  size_t ColdQueries = 0;
  double EagerP50Ms = 0, EagerP99Ms = 0, DemandP50Ms = 0, DemandP99Ms = 0;
  double ColdImprovement = 0;
  unsigned long long ColdMismatches = 0, PostMismatches = 0;
  unsigned long long ColdPartialAnswers = 0, ColdPromotions = 0;
  if (ColdP99) {
    // First touch of every cluster: its first two pointer members at
    // their canonical location. Each query lands on a cluster nobody
    // has materialized yet -- the tail this ablation measures.
    struct ColdQuery {
      ir::VarId A, B;
      ir::LocId Loc;
    };
    std::vector<ColdQuery> ColdQs;
    for (const core::Cluster &C : Solved->Clusters) {
      ir::VarId A = ir::InvalidVar, B = ir::InvalidVar;
      for (ir::VarId V : C.Members) {
        if (!P->var(V).isPointer())
          continue;
        if (A == ir::InvalidVar) {
          A = V;
        } else {
          B = V;
          break;
        }
      }
      if (B == ir::InvalidVar)
        continue;
      ir::LocId Loc = query::canonicalAliasLoc(*P, A, B);
      if (Loc == ir::InvalidLoc)
        continue;
      ColdQs.push_back({A, B, Loc});
    }
    ColdQueries = ColdQs.size();

    // Pool outlives both snapshots (declared first): a promotion worker
    // releasing the last snapshot reference must never destroy the pool
    // it is running on.
    auto PromoPool = std::make_shared<ThreadPool>(2);
    query::QueryOptions EagerOpts;
    EagerOpts.EngineOpts = BOpts.EngineOpts;
    query::QueryOptions DemandOpts = EagerOpts;
    DemandOpts.DemandMode = true;
    DemandOpts.PromotionPool = PromoPool;
    // Fresh snapshots: materialized entries are per snapshot, so the
    // main engine's warm entries never reach these first touches.
    std::shared_ptr<const query::QuerySnapshot> EagerSnap =
        query::QuerySnapshot::build(P, Solved, &Result.Clusters, EagerOpts,
                                    nullptr);
    std::shared_ptr<const query::QuerySnapshot> DemandSnap =
        query::QuerySnapshot::build(P, Solved, &Result.Clusters, DemandOpts,
                                    nullptr);

    support::LatencyHistogram EagerH, DemandH;
    std::vector<uint8_t> EagerVerdicts;
    EagerVerdicts.reserve(ColdQs.size());
    for (const ColdQuery &Q : ColdQs) {
      Timer T;
      query::AliasAnswer A = EagerSnap->mayAliasAt(Q.A, Q.B, Q.Loc);
      EagerH.record(static_cast<uint64_t>(T.seconds() * 1e9));
      EagerVerdicts.push_back(A.MayAlias ? 1 : 0);
    }
    for (size_t I = 0; I < ColdQs.size(); ++I) {
      const ColdQuery &Q = ColdQs[I];
      Timer T;
      query::AliasAnswer A = DemandSnap->mayAliasAt(Q.A, Q.B, Q.Loc);
      DemandH.record(static_cast<uint64_t>(T.seconds() * 1e9));
      if ((A.MayAlias ? 1 : 0) != EagerVerdicts[I])
        ++ColdMismatches;
    }

    // Drain promotions, then every answer must be identical to the
    // never-partial snapshot's -- verdict and provenance both.
    DemandSnap->waitPromotionsIdle();
    for (size_t I = 0; I < ColdQs.size(); ++I) {
      const ColdQuery &Q = ColdQs[I];
      query::AliasAnswer E = EagerSnap->mayAliasAt(Q.A, Q.B, Q.Loc);
      query::AliasAnswer D = DemandSnap->mayAliasAt(Q.A, Q.B, Q.Loc);
      if (E.MayAlias != D.MayAlias || E.Source != D.Source)
        ++PostMismatches;
    }
    query::SnapshotStats DSt = DemandSnap->stats();
    ColdPartialAnswers = DSt.FscsPartialAnswers;
    ColdPromotions = DSt.PromotionsCompleted;

    support::LatencyHistogram::Snapshot ES = EagerH.snapshot();
    support::LatencyHistogram::Snapshot DS = DemandH.snapshot();
    EagerP50Ms = ES.quantileSecondsIfAny(0.50).value_or(0) * 1e3;
    EagerP99Ms = ES.quantileSecondsIfAny(0.99).value_or(0) * 1e3;
    DemandP50Ms = DS.quantileSecondsIfAny(0.50).value_or(0) * 1e3;
    DemandP99Ms = DS.quantileSecondsIfAny(0.99).value_or(0) * 1e3;
    ColdImprovement = DemandP99Ms > 0 ? EagerP99Ms / DemandP99Ms : 0.0;
  }

  std::printf("Query throughput on autofs (scale %.2f): %zu pointers, "
              "%zu pairs, %zu clusters (cascade %.3fs)\n",
              Scale, Ptrs.size(), NumPairs, Result.Clusters.size(),
              CascadeSeconds);
  std::printf("  %-26s %10s %14s\n", "configuration", "seconds",
              "queries/sec");
  std::printf("  %-26s %10.3f %14.0f\n", "naive whole-program loop",
              NaiveSeconds, Qps(NaiveSeconds));
  std::printf("  %-26s %10.3f %14.0f\n", "engine cold (1 thread)",
              ColdSeconds, Qps(ColdSeconds));
  std::printf("  %-26s %10.3f %14.0f\n", "engine warm (1 thread)",
              WarmSeconds, Qps(WarmSeconds));
  std::printf("  %-26s %10.3f %14.0f\n",
              ("engine warm (" + std::to_string(Threads) + " threads)")
                  .c_str(),
              MtSeconds, Qps(MtSeconds));
  std::printf("  speedup vs naive (cold): %.1fx; aliases found: naive "
              "%llu, engine %llu\n",
              Speedup, (unsigned long long)NaiveAliases,
              (unsigned long long)EngineAliases);
  std::printf("  answers: index %llu, fscs %llu, andersen %llu, "
              "steensgaard %llu; materialized %llu (%llu adopted, "
              "%llu evicted)\n",
              (unsigned long long)St.IndexAnswers,
              (unsigned long long)St.FscsAnswers,
              (unsigned long long)St.AndersenAnswers,
              (unsigned long long)St.SteensgaardAnswers,
              (unsigned long long)St.Materializations,
              (unsigned long long)St.CacheAdoptions,
              (unsigned long long)St.Evictions);
  if (StoreRun) {
    std::printf("  store restart ablation (%s):\n", StoreDir.c_str());
    std::printf("    cold cascade %.3fs (%llu records written), warm "
                "restart %.3fs (%llu revived, hit rate %.2f)\n",
                StoreColdSeconds, StorePuts, StoreWarmSeconds, StoreHits,
                StoreHitRate);
    std::printf("    store: %llu records, %.2f MB live\n", StoreRecords,
                double(StoreLiveBytes) / 1e6);
    std::printf("    warm stats %s, warm verdicts %s\n",
                StoreStatsIdentical ? "byte-identical" : "DIVERGED",
                StoreVerdictsIdentical ? "byte-identical" : "DIVERGED");
  }
  if (ColdP99) {
    std::printf("  cold-cluster tail latency (%zu first-touch queries):\n",
                ColdQueries);
    std::printf("    eager  p50 %9.3fms  p99 %9.3fms\n", EagerP50Ms,
                EagerP99Ms);
    std::printf("    demand p50 %9.3fms  p99 %9.3fms  (%.1fx p99, "
                "%llu partial answers, %llu promotions)\n",
                DemandP50Ms, DemandP99Ms, ColdImprovement,
                ColdPartialAnswers, ColdPromotions);
    std::printf("    verdicts: %s during partial phase, %s after "
                "promotion\n",
                ColdMismatches == 0 ? "identical" : "DIVERGED",
                PostMismatches == 0 ? "identical" : "DIVERGED");
  }

  if (StatsJson) {
    support::JsonWriter W;
    W.beginObject()
        .field("bench", "query_throughput")
        .field("scale", Scale)
        .field("pointers", Ptrs.size())
        .field("pairs", NumPairs)
        .field("clusters", Result.Clusters.size())
        .field("cascade_seconds", CascadeSeconds)
        .field("naive_seconds", NaiveSeconds)
        .field("cold_seconds", ColdSeconds)
        .field("warm_seconds", WarmSeconds)
        .field("warm_mt_seconds", MtSeconds)
        .field("threads", Threads)
        .field("speedup_vs_naive", Speedup)
        .field("qps_cold", Qps(ColdSeconds))
        .field("qps_warm", Qps(WarmSeconds))
        .field("qps_warm_mt", Qps(MtSeconds))
        .field("aliases_naive", NaiveAliases)
        .field("aliases_engine", EngineAliases);
    W.key("answers")
        .beginObject()
        .field("index", St.IndexAnswers)
        .field("fscs", St.FscsAnswers)
        .field("andersen", St.AndersenAnswers)
        .field("steensgaard", St.SteensgaardAnswers)
        .endObject();
    W.field("materializations", St.Materializations)
        .field("cache_adoptions", St.CacheAdoptions)
        .field("evictions", St.Evictions);
    W.key("store")
        .beginObject()
        .field("enabled", StoreRun)
        .field("cold_cascade_seconds", StoreColdSeconds)
        .field("warm_cascade_seconds", StoreWarmSeconds)
        .field("store_puts", StorePuts)
        .field("store_hits", StoreHits)
        .field("warm_store_hit_rate", StoreHitRate)
        .field("store_records", StoreRecords)
        .field("store_live_bytes", StoreLiveBytes)
        .field("warm_stats_identical", StoreStatsIdentical)
        .field("warm_verdicts_identical", StoreVerdictsIdentical)
        .endObject();
    W.key("cold_p99")
        .beginObject()
        .field("enabled", ColdP99)
        .field("queries", ColdQueries)
        .field("eager_p50_ms", EagerP50Ms)
        .field("eager_p99_ms", EagerP99Ms)
        .field("demand_p50_ms", DemandP50Ms)
        .field("demand_p99_ms", DemandP99Ms)
        .field("p99_improvement", ColdImprovement)
        .field("partial_answers", ColdPartialAnswers)
        .field("promotions", ColdPromotions)
        .field("mismatches", ColdMismatches)
        .field("post_promotion_mismatches", PostMismatches)
        .endObject()
        .endObject();
    std::puts(W.str().c_str());
  }

  // Self-gating: a warm restart that changes any answer or any
  // replayable stat is a correctness failure, not a perf regression.
  if (StoreRun && (!StoreStatsIdentical || !StoreVerdictsIdentical))
    return 1;
  // Self-gating for --cold-p99: any verdict divergence is a soundness
  // failure; a p99 improvement under 2x means the demand path stopped
  // earning its keep.
  if (ColdP99 && (ColdMismatches || PostMismatches || ColdImprovement < 2.0))
    return 1;
  return 0;
}
