//===- query/QuerySnapshot.h - Immutable query-serving snapshot -*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One immutable, internally synchronized view of a bootstrapped
/// analysis run, built for serving may-alias / points-to queries:
///
///  * an *inverted pointer -> cluster index* over the disjunctive alias
///    cover. By Theorem 7 the aliases of a pointer are the union of its
///    aliases within the clusters containing it, so two pointers that
///    share no cluster cannot alias -- answered from the index alone,
///    without touching any FSCS data;
///  * *lazily materialized per-cluster FSCS analyses*. The cascade's
///    per-cluster results are replayed from the shared SummaryCache
///    (ClusterAliasAnalysis::adoptState) -- for every snapshot built
///    over a cascade with a cache, that is every materialization --
///    and only a snapshot without one recomputes a cluster on first
///    touch; a configurable cap, enforced by a CLOCK sweep, bounds how
///    many clusters are resident at once. Each analysis memoizes its
///    points-to answers, so a warm query is a lock of its cluster's
///    entry plus memo lookups;
///  * a *sound precision-fallback chain*. Clusters whose cascade run
///    was flagged BudgetHit/Approximated may have lost origins, so a
///    "no alias" verdict from their FSCS data cannot be trusted; such
///    clusters are answered by whole-program Andersen (lazily solved,
///    shared) or, when disabled, Steensgaard. Every fallback stage
///    over-approximates the one before it, so answers remain sound --
///    only precision degrades.
///
/// A snapshot solves nothing itself. It co-owns everything it reads:
/// the program, and the driver's core::SolvedCover (the call graph, the
/// Steensgaard solve and the cover the cascade used), so it stays valid
/// after the producing driver moves to a newer program version, and
/// every materialization runs against the very solve that produced the
/// cover's partition ids. All query methods are const and thread-safe.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_QUERY_QUERYSNAPSHOT_H
#define BSAA_QUERY_QUERYSNAPSHOT_H

#include "analysis/Andersen.h"
#include "core/BootstrapDriver.h"
#include "fscs/ClusterAliasAnalysis.h"
#include "fscs/SummaryCache.h"
#include "ir/Ir.h"
#include "support/ThreadSlots.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

namespace bsaa {
namespace query {

/// Which rung of the precision chain produced an answer.
enum class AnswerSource : uint8_t {
  Index,       ///< Cover index alone (no shared cluster, trivial pair).
  Fscs,        ///< Per-cluster FSCS result.
  FscsPartial, ///< Produced by no rung. Kept only because the
               ///< perfbench harness indexes this enum's layout: a
               ///< static_assert on Steensgaard's value, its span-name
               ///< table and a switch over every enumerator. It goes
               ///< together with those uses.
  Andersen,    ///< Whole-program Andersen fallback (flagged cluster).
  Steensgaard, ///< Last-resort unification fallback.
};

const char *answerSourceName(AnswerSource S);

/// Serving configuration.
struct QueryOptions {
  /// Cap on concurrently materialized per-cluster FSCS analyses
  /// (at least 1), enforced by CLOCK eviction. Evicted clusters
  /// re-materialize on the next query, by adopting the cascade's cached
  /// run again when the snapshot has a summary cache.
  size_t MaxMaterializedClusters = 64;

  /// Fall back to whole-program Andersen for flagged clusters; when
  /// false the chain degrades straight to Steensgaard.
  bool UseAndersenFallback = true;

  /// Engine options for materializing cluster analyses. Must equal the
  /// options the cascade ran with: materialization adopts the cached
  /// run under the run's own key, which embeds the cascade's options
  /// (AliasService enforces this).
  fscs::SummaryEngine::Options EngineOpts;

  /// Solver options for the whole-program Andersen fallback. Synced
  /// from the driver by AliasService so fallback answers come from the
  /// same solver configuration the cascade's refinement stage used.
  analysis::AndersenAnalysis::Options AndersenOpts;
};

/// A may-alias verdict plus its provenance.
struct AliasAnswer {
  bool MayAlias = false;
  AnswerSource Source = AnswerSource::Index;
};

/// A points-to answer plus its provenance.
struct PointsToAnswer {
  std::vector<ir::VarId> Objects; ///< Sorted, deduplicated.
  AnswerSource Source = AnswerSource::Index;
  /// False when any consulted cluster run was truncated or a fallback
  /// stage (flow-insensitive, hence over-approximate) contributed.
  bool Complete = true;
};

/// Serving-side accounting (monotone except Resident).
struct SnapshotStats {
  uint64_t IndexAnswers = 0;   ///< Answered from the index alone.
  uint64_t FscsAnswers = 0;    ///< Answered at full FSCS precision.
  uint64_t AndersenAnswers = 0;
  uint64_t SteensgaardAnswers = 0;
  /// FSCS points-to walks run because the answer memo missed; the
  /// rest of the FSCS-rung lookups were served from the memo.
  uint64_t Walks = 0;
  uint64_t Materializations = 0; ///< Cluster analyses constructed.
  uint64_t CacheAdoptions = 0;   ///< ...of which replayed a cached run.
  uint64_t Evictions = 0;        ///< CLOCK evictions.
  uint64_t Resident = 0;         ///< Currently materialized clusters.
};

/// The canonical location a location-free mayAlias(p, q) is evaluated
/// at: the owning function's exit when both pointers share an owner,
/// the entry function's exit otherwise (globals and cross-function
/// pairs). InvalidLoc when the program has no entry function.
ir::LocId canonicalAliasLoc(const ir::Program &P, ir::VarId A, ir::VarId B);

/// Immutable query-serving view of one analyzed program version.
///
/// "Immutable" refers to the analysis inputs and answers; the snapshot
/// caches materialized per-cluster state internally. A cluster is
/// either not resident or resident with a fully prepared analysis:
/// materialization adopts the cascade's cached run for the cluster, or
/// runs prepare() when the snapshot has no cache to adopt from.
class QuerySnapshot {
public:
  /// Builds a snapshot over \p Solved, the solve and cover of \p P.
  /// \p Runs, when non-null, must be aligned index-for-index with
  /// Solved->Clusters (BootstrapResult::Clusters after runAll over that
  /// cover) and supplies the
  /// BudgetHit/Approximated serving flags and the runs' summary-cache
  /// keys; null means every cluster is trusted at FSCS precision and
  /// has no key. \p Cache, when non-null, lets materialization replay
  /// the cascade's memoized per-cluster runs under those keys.
  static std::shared_ptr<const QuerySnapshot>
  build(std::shared_ptr<const ir::Program> P,
        std::shared_ptr<const core::SolvedCover> Solved,
        const std::vector<core::ClusterRunResult> *Runs, QueryOptions Opts,
        std::shared_ptr<fscs::SummaryCache> Cache = nullptr);

  ~QuerySnapshot();
  QuerySnapshot(const QuerySnapshot &) = delete;
  QuerySnapshot &operator=(const QuerySnapshot &) = delete;

  //===--------------------------------------------------------------===//
  // Queries (const, thread-safe)
  //===--------------------------------------------------------------===//

  /// May-alias at the canonical location (see canonicalAliasLoc).
  AliasAnswer mayAlias(ir::VarId A, ir::VarId B) const;

  /// May-alias just before \p Loc.
  AliasAnswer mayAliasAt(ir::VarId A, ir::VarId B, ir::LocId Loc) const;

  /// Objects \p V may point to just before \p Loc: the Theorem 7 union
  /// over the clusters containing V.
  PointsToAnswer pointsToAt(ir::VarId V, ir::LocId Loc) const;

  //===--------------------------------------------------------------===//
  // Introspection
  //===--------------------------------------------------------------===//

  /// Cluster ids containing \p V (sorted ascending).
  const std::vector<uint32_t> &clustersOf(ir::VarId V) const;

  /// True when cluster \p Idx is served through the fallback chain.
  bool clusterNeedsFallback(uint32_t Idx) const {
    return NeedsFallback[Idx] != 0;
  }

  const ir::Program &program() const { return *Prog; }
  const std::vector<core::Cluster> &cover() const { return Solved->Clusters; }
  const QueryOptions &options() const { return Opts; }

  /// True when the snapshot was built from runs that carry
  /// summary-cache keys (a driver with a SummaryCache attached).
  bool hasClusterKeys() const { return Keys.size() == cover().size(); }

  /// Cluster \p Idx's dependency-scope key, as computed by the run that
  /// produced it. Requires hasClusterKeys().
  const support::Digest &clusterKey(uint32_t Idx) const { return Keys[Idx]; }

  /// The call graph and Steensgaard solve the cover was built over,
  /// borrowed from the driver that produced them.
  const ir::CallGraph &callGraph() const { return *Solved->CG; }
  const analysis::SteensgaardAnalysis &steensgaard() const {
    return *Solved->Steens;
  }
  SnapshotStats stats() const;

  /// Evicts materialized cluster analyses (CLOCK order: entries not
  /// queried since the hand last passed go first) until at most
  /// max(1, \p MaxResident) remain; returns how many were evicted. The
  /// cross-tenant memory accountant (serving/TenantRegistry.h) calls
  /// this on over-budget tenants. Sound by construction: eviction only
  /// discards *materialized state* -- the next query re-materializes
  /// the cluster from the same content-addressed inputs (summary-cache
  /// replay or recomputation), so no answer ever changes. Entries a
  /// reader is using right now (their lock is held) are skipped.
  size_t trimResident(size_t MaxResident) const;

private:
  QuerySnapshot(std::shared_ptr<const ir::Program> P,
                std::shared_ptr<const core::SolvedCover> SolvedIn,
                const std::vector<core::ClusterRunResult> *Runs,
                QueryOptions OptsIn,
                std::shared_ptr<fscs::SummaryCache> CacheIn);

  /// The serving state of one cluster, alive as long as the snapshot.
  /// ClusterAliasAnalysis queries mutate engine and memo state, so each
  /// entry carries its own mutex; AA is null while the cluster is not
  /// resident. Padded to a cache line: queries on different clusters
  /// never share one.
  struct alignas(support::CacheLine) Entry {
    std::mutex M;
    std::unique_ptr<fscs::ClusterAliasAnalysis> AA; ///< Under M.
    /// CLOCK reference bit: set by queries, cleared by the hand.
    std::atomic<bool> Referenced{false};
  };

  /// Locks cluster \p ClusterIdx's entry and returns the lock, with
  /// the entry's analysis materialized (evicting others, under the
  /// lock, to stay within the cap).
  std::unique_lock<std::mutex> acquire(uint32_t ClusterIdx) const;
  /// Constructs the entry's analysis, adopting the cascade's cached run
  /// or preparing it from scratch. Caller holds E.M; E.AA is null.
  void materializeLocked(uint32_t ClusterIdx, Entry &E) const;
  /// Runs the CLOCK hand until at most \p Target entries are resident,
  /// never evicting \p Keep (whose lock the caller may hold) or an
  /// entry locked by a reader; returns how many it evicted.
  size_t evict(size_t Target, uint32_t Keep) const;
  const analysis::AndersenAnalysis &andersen() const;
  AliasAnswer fallbackMayAlias(ir::VarId A, ir::VarId B) const;
  void countAnswer(AnswerSource S) const {
    Counters.add(static_cast<size_t>(S));
  }
  /// Counts the walks \p AA ran since its numWalks() was \p Before.
  void countWalks(const fscs::ClusterAliasAnalysis &AA,
                  uint64_t Before) const;

  std::shared_ptr<const ir::Program> Prog;
  std::shared_ptr<const core::SolvedCover> Solved;
  QueryOptions Opts;
  std::shared_ptr<fscs::SummaryCache> Cache;
  /// Per cluster id: the producing run's summary-cache key (empty when
  /// the runs carried none).
  std::vector<support::Digest> Keys;

  /// Inverted index: VarId -> sorted cluster ids containing it.
  std::vector<std::vector<uint32_t>> VarClusters;
  std::vector<uint8_t> NeedsFallback; ///< Per cluster id.

  /// Lazily solved whole-program Andersen fallback.
  mutable std::once_flag AndersenOnce;
  mutable std::unique_ptr<analysis::AndersenAnalysis> AndersenFallback;

  /// One entry per cluster id. CLOCK residency: NumResident counts
  /// entries with an analysis; the hand (under EvictMutex) sweeps the
  /// entries when it exceeds the cap.
  std::unique_ptr<Entry[]> Entries;
  mutable std::atomic<size_t> NumResident{0};
  mutable std::mutex EvictMutex;
  mutable uint32_t Hand = 0; ///< Guarded by EvictMutex.

  /// Per-rung answer counters (indexed by AnswerSource) plus the walk
  /// counter, sharded per thread: the hot path never shares a line.
  static constexpr size_t WalksCounter =
      static_cast<size_t>(AnswerSource::Steensgaard) + 1;
  mutable support::ShardedCounters<WalksCounter + 1> Counters;
  mutable std::atomic<uint64_t> NumMaterializations{0};
  mutable std::atomic<uint64_t> NumCacheAdoptions{0};
  mutable std::atomic<uint64_t> NumEvictions{0};
};

} // namespace query
} // namespace bsaa

#endif // BSAA_QUERY_QUERYSNAPSHOT_H
