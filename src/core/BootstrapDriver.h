//===- core/BootstrapDriver.h - The bootstrapping cascade ------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end bootstrapping pipeline of the paper:
///
///   Steensgaard partitioning
///     -> [optional One-Level Flow refinement]
///     -> Andersen clustering of partitions above a size threshold
///        (paper: 60), each run only on its partition's Algorithm-1
///        slice (Steensgaard bootstraps Andersen)
///     -> per-cluster summarization-based FSCS analysis
///     -> greedy k-way packing of clusters to simulate parallel
///        machines (the paper simulates 5), plus optional real
///        threading since clusters are independent.
///
/// The driver also runs the "without clustering" baseline (whole
/// program as one cluster, with a step budget standing in for the
/// paper's 15-minute timeout), which is exactly what Table 1 compares.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_CORE_BOOTSTRAPDRIVER_H
#define BSAA_CORE_BOOTSTRAPDRIVER_H

#include "analysis/Andersen.h"
#include "analysis/Steensgaard.h"
#include "core/Cluster.h"
#include "core/ClusterDependencies.h"
#include "core/RelevantStatements.h"
#include "fscs/SummaryCache.h"
#include "fscs/SummaryEngine.h"
#include "ir/CallGraph.h"
#include "support/Statistics.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace bsaa {

class ThreadPool;

namespace core {

namespace detail {
/// Enqueues one cluster job, treating a rejected submit as a hard
/// error. ThreadPool::submit returns false once shutdown has begun; a
/// job rejected there would never run, leaving its cluster's slot as a
/// default-initialized ClusterRunResult indistinguishable from a real
/// result -- so rejection must throw, never be ignored.
void submitClusterJobOrThrow(ThreadPool &Pool, std::function<void()> Job);
} // namespace detail

/// Memoized Andersen refinement of one oversized partition: the vector
/// of refined sub-clusters, keyed purely by the refinement inputs
/// (member list and content, slice statements and content) so entries
/// survive program edits that leave the partition's slice intact.
/// Cached clusters carry the inserting run's SourcePartition; the
/// driver restamps it on every hit because partition ids are artifacts
/// of one Steensgaard solve.
using RefinementCache = support::ShardedCache<std::vector<Cluster>>;

/// Payload-size estimate of a RefinementCache entry for its byte gauge.
uint64_t approxClusterVectorBytes(const std::vector<Cluster> &Cs);

/// Pipeline configuration.
struct BootstrapOptions {
  /// Steensgaard partitions with more pointers than this get refined by
  /// bootstrapped Andersen clustering (the paper's empirical 60).
  /// UINT32_MAX is the "never refine" sentinel: no pointer count
  /// exceeds it, so the size test alone implements it -- Andersen
  /// clustering is disabled entirely and every nonempty partition
  /// reaches the FSCS stage whole.
  uint32_t AndersenThreshold = 60;

  /// Cascade Das One-Level Flow between Steensgaard and Andersen:
  /// partitions above AndersenThreshold are first split by One-Level
  /// Flow points-to sets; only still-oversized clusters fall through to
  /// Andersen. (The paper suggests this as "another option".)
  bool UseOneFlow = false;

  /// Parts for the paper's simulated-parallelism report.
  uint32_t SimulatedParts = 5;

  /// Real worker threads for per-cluster analyses (0 = sequential).
  unsigned Threads = 0;

  /// Per-cluster FSCS engine options (step budget models the paper's
  /// 15-minute timeout).
  fscs::SummaryEngine::Options EngineOpts;

  /// Solver options for the Andersen refinement stage. Every
  /// configuration computes identical points-to sets (the knobs trade
  /// solve time only), but the options still participate in the
  /// refinement-cache key so cached cluster vectors never masquerade as
  /// the product of a configuration that did not produce them.
  analysis::AndersenAnalysis::Options AndersenOpts;

  /// Instrumentation hook run at the start of every cluster job (on the
  /// worker thread in threaded runs). Used for progress reporting and,
  /// in tests, for fault injection: an exception it throws surfaces
  /// from runAll() like any other cluster-job failure.
  std::function<void(const Cluster &)> ClusterHook;

  /// Cross-cluster FSCS memoization (null = disabled). Shared between
  /// cluster workers and, because entries are keyed by the cluster's
  /// dependency scope (core/ClusterDependencies.h), safely shareable
  /// across driver instances, program versions and programs:
  /// overlapping covers, repeated ablation configurations and clusters
  /// an edit left untouched hit the cache instead of re-running
  /// SummaryEngine. A hit replays bit-identical per-cluster metrics and
  /// global statistics.
  std::shared_ptr<fscs::SummaryCache> SummaryCache;

  /// Algorithm-1 result memoization (null = disabled), keyed by
  /// (program fingerprint, member list).
  std::shared_ptr<SliceCache> RelevantSliceCache;

  /// Andersen refinement memoization for oversized partitions (null =
  /// disabled). Consulted only on the pure-Andersen paths; the key is
  /// content-addressed over the actual solver inputs, so it is sound
  /// on the One-Flow fall-through pieces too.
  std::shared_ptr<RefinementCache> AndersenRefinementCache;

  /// Solved Steensgaard instance (over a previous program version) to
  /// adopt instead of re-solving. The caller MUST have verified the
  /// adoption gate -- equal ir::partitionRelevantFingerprint on both
  /// programs (see SteensgaardAnalysis::adoptSolutionFrom). The
  /// pointee must outlive this driver's steensgaard() call. Null =
  /// solve normally.
  const analysis::SteensgaardAnalysis *AdoptSteensgaard = nullptr;

  /// Directory of the persistent CacheStore backing the caches above
  /// (empty = no persistence). AliasService / IncrementalDriver /
  /// TenantRegistry resolve this through core::openStoreAndAttach at
  /// construction: every attached cache then writes winning inserts
  /// through to disk and revives memory misses from it, so a restarted
  /// process warm-starts instead of re-solving. BootstrapDriver itself
  /// ignores the path -- callers that build drivers directly attach
  /// stores to their caches explicitly.
  std::string StorePath;

  /// Already-open store to adopt instead of opening StorePath (takes
  /// precedence when non-null). The serving registry opens one store
  /// and stamps it here so every tenant shares it.
  std::shared_ptr<support::CacheStore> Store;

  /// Statistics registry this pipeline accumulates into (null = the
  /// process-wide Statistics::global()). Multi-tenant serving gives
  /// every tenant its own registry so concurrent re-analyses never
  /// stomp each other's statistics epoch -- the IncrementalDriver
  /// clears the *effective* registry at the start of every update,
  /// which with the global registry is only re-entrant for one driver
  /// per process.
  std::shared_ptr<Statistics> StatsRegistry;
};

/// Per-cluster FSCS outcome.
struct ClusterRunResult {
  uint32_t PointerCount = 0;
  uint32_t SliceSize = 0;  ///< Statements in the cluster's St_P slice.
  uint64_t CostKey = 0;    ///< LPT scheduling key: pointers x slice size.
  double Seconds = 0;      ///< Wall-clock of the cluster's FSCS run.
  uint64_t Steps = 0;
  uint64_t SummaryTuples = 0;
  uint64_t SummaryKeys = 0;
  uint32_t DepthLevels = 0; ///< Dovetail depth levels fully issued.
  uint32_t FsciQueries = 0; ///< Dovetail FSCI queries issued.
  bool DovetailComplete = true;
  bool BudgetHit = false;
  bool Approximated = false;
  /// Served from the summary cache (all non-timing fields replayed from
  /// the memoized run; Seconds measures the lookup instead).
  bool FromCache = false;
  /// The run's summary-cache key, its dependency-scope digest (all
  /// zero when no SummaryCache is attached). Query snapshots adopt
  /// cached runs and the race checker keys its facts by it.
  support::Digest Key;

  /// The engine accounting this result replays.
  fscs::SummaryEngine::EngineStats engineStats() const {
    return {Steps, SummaryTuples, SummaryKeys, BudgetHit, Approximated};
  }
};

/// Whole-pipeline outcome: the raw material of a Table 1 row.
struct BootstrapResult {
  double SteensgaardSeconds = 0;
  double AndersenClusteringSeconds = 0;
  double OneFlowSeconds = 0;

  uint32_t NumClusters = 0;
  uint32_t MaxClusterSize = 0; ///< Pointers in the largest cluster.

  std::vector<ClusterRunResult> Clusters;
  double TotalFscsSeconds = 0;      ///< Sum over clusters.
  double SimulatedParallelSeconds = 0; ///< Greedy k-part max.
  bool AnyBudgetHit = false;

  /// Cache accounting at the end of the run (both all-zero with their
  /// Enabled flag false when the corresponding cache was not attached).
  /// Counters are cumulative over the cache's lifetime, which may span
  /// several drivers sharing it.
  struct CacheReport {
    bool Enabled = false;
    support::CacheCounters Counters;
  };
  CacheReport SummaryCacheReport;
  CacheReport SliceCacheReport;
};

/// One solved program version: the call graph and Steensgaard solve a
/// cover was built over, plus the cover (its partition ids only mean
/// something relative to that solve). Immutable and shared: query
/// snapshots co-own it and keep it alive after the driver moves on.
/// Holders must keep the program alive too.
struct SolvedCover {
  std::shared_ptr<const ir::CallGraph> CG;
  std::shared_ptr<const analysis::SteensgaardAnalysis> Steens;
  std::vector<Cluster> Clusters;
};

/// Drives the cascade over one program.
class BootstrapDriver {
public:
  BootstrapDriver(const ir::Program &P, BootstrapOptions Opts);

  /// Stage 1: Steensgaard (memoized). With a SummaryCache attached,
  /// also builds the scope-key index over the solved partitions.
  const analysis::SteensgaardAnalysis &steensgaard();

  /// Stages 1-2(-3): the cluster cover per the options, slices
  /// attached. Timings land in the result of runAll().
  std::vector<Cluster> buildCover();

  /// buildCover() packaged with this driver's call graph and
  /// Steensgaard solve: the one input query serving is built from
  /// (query::QuerySnapshot::build).
  std::shared_ptr<const SolvedCover> buildSolvedCover();

  /// Stage 4 for one cluster: dovetailed FSCS analysis computing the
  /// points-to set of every member pointer at its owner's exit.
  /// Requires steensgaard() to have run; thread-safe across clusters
  /// afterwards.
  ClusterRunResult analyzeCluster(const Cluster &C) const;

  /// The whole pipeline. With Threads > 1 the cluster jobs are
  /// dispatched to the pool in longest-processing-time (LPT) order --
  /// largest CostKey (pointer count x slice size) first -- which keeps
  /// the big clusters from landing last and serializing the tail.
  /// Results are written back by discovery index, so Clusters ordering
  /// is identical to the sequential run. If a cluster job throws, the
  /// remaining jobs drain and the first exception is rethrown here.
  BootstrapResult runAll();

  /// Same pipeline over a cover the caller already built with
  /// buildCover() -- the incremental driver builds the cover once,
  /// analyzes it here, and hands the same cover to the query snapshot
  /// without paying for cover construction twice.
  BootstrapResult runAll(const std::vector<Cluster> &Cover);

  /// The "no clustering" baseline: one whole-program cluster.
  ClusterRunResult runUnclustered();

  /// The paper's greedy parallel simulation: clusters are packed into
  /// exactly \p Parts parts -- never more -- by longest-processing-time
  /// greedy packing on pointer count (sort descending, assign each
  /// cluster to the currently least-loaded part); returns the maximum
  /// per-part total analysis time.
  static double simulateParallel(const std::vector<ClusterRunResult> &Rs,
                                 uint32_t Parts);

  const ir::CallGraph &callGraph() const { return *CG; }

private:
  /// Andersen refinement of one oversized cluster, memoized through
  /// Opts.AndersenRefinementCache when attached.
  std::vector<Cluster> refineByAndersen(const Cluster &Part);

  /// The effective statistics registry (Opts.StatsRegistry or the
  /// process-wide one).
  Statistics &stats() const;

  const ir::Program &Prog;
  BootstrapOptions Opts;
  /// Shared with every SolvedCover this driver hands out.
  std::shared_ptr<const ir::CallGraph> CG;
  std::shared_ptr<analysis::SteensgaardAnalysis> Steens;
  /// Summary-cache key index over Steens (null without a SummaryCache).
  std::unique_ptr<ScopeKeyIndex> ScopeKeys;
  double AndersenSeconds = 0;
  double OneFlowSecs = 0;
  /// Program content fingerprint for slice-cache keys; computed once
  /// in the constructor when that cache is attached (0 otherwise).
  uint64_t ProgFP = 0;
};

/// Controls which sections toStatsJson emits. Determinism and
/// cache-equivalence tests compare runs byte-for-byte, which requires
/// excluding wall-clock timings (never repeatable) and cache counters
/// (cumulative across the cache's lifetime, so they differ between a
/// cold and a warm run even when the analysis results are identical).
struct StatsJsonOptions {
  bool IncludeTimings = true;
  bool IncludeCacheStats = true;
};

/// Renders \p R as a JSON document: pipeline timings, per-cluster
/// metrics (pointer count, slice size, LPT cost key, wall-clock, steps,
/// summary tuples/keys, dovetail accounting, budget/approximation
/// flags), cache accounting, and the statistics section from \p Stats.
/// \p O selects sections (see StatsJsonOptions). Pipelines run with
/// BootstrapOptions::StatsRegistry must pass the same registry as
/// \p Stats for the statistics section to describe that run. This is
/// what --stats-json dumps in the bench harnesses.
std::string toStatsJson(const BootstrapResult &R,
                        const StatsJsonOptions &O = {},
                        const Statistics &Stats = Statistics::global());

} // namespace core
} // namespace bsaa

#endif // BSAA_CORE_BOOTSTRAPDRIVER_H
