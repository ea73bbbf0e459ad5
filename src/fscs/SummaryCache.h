//===- fscs/SummaryCache.h - Cross-cluster summary memoization --*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, content-addressed memoization layer for per-cluster
/// FSCS runs, shared across cluster workers, driver instances and
/// program versions. The disjunctive alias cover (Theorem 7) produces
/// overlapping clusters, ablation harnesses run the same program
/// through several cascade configurations, and most clusters of an
/// edited program observe nothing the edit changed; whenever two runs
/// analyze a cluster with the same dependency-scope key
/// (core::ScopeKeyIndex: members, slice, tracked refs, engine options,
/// the bodies of its dependency cone and the Steensgaard facts it
/// reads), the second run hits the cache instead of re-running
/// SummaryEngine. Every run is stored once, under that one key.
///
/// The cache entry always holds the run's engine and dovetail-warmup
/// accounting, so a hit replays *bit-identical* per-cluster metrics.
/// An unflagged run's entry also holds the engine's exported State
/// (per-key summary tuples, waiter hashes and the FSCI memo; see
/// SummaryEngine::exportState), which serves arbitrary further queries
/// through ClusterAliasAnalysis::adoptState. A flagged run (BudgetHit
/// or Approximated) keeps no State: queries never read its cluster's
/// FSCS answers, they go to the fallback (query::QuerySnapshot).
/// Soundness of the key derivation (why digest equality implies state
/// equality) is argued in DESIGN.md, "Summary-cache key derivation".
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_FSCS_SUMMARYCACHE_H
#define BSAA_FSCS_SUMMARYCACHE_H

#include "fscs/Dovetail.h"
#include "fscs/SummaryEngine.h"
#include "support/ShardedCache.h"

#include <memory>

namespace bsaa {
namespace fscs {

class ClusterAliasAnalysis;

/// One memoized per-cluster FSCS run.
struct CachedClusterRun {
  /// Post-run memoized product; empty when Stats.flagged().
  SummaryEngine::State Engine;
  DovetailStats Dove;               ///< Warmup accounting to replay.
  SummaryEngine::EngineStats Stats; ///< Aggregate accounting to replay.

  /// What the cache keeps of \p AA's finished run: its accounting, and
  /// its exported State only if the run is unflagged.
  static CachedClusterRun of(const ClusterAliasAnalysis &AA);

  uint64_t approxBytes() const {
    return Engine.approxBytes() + sizeof(*this);
  }
};

/// The shared cross-cluster cache. Sharded buckets, no global lock on
/// the hit path (see support/ShardedCache.h).
class SummaryCache {
public:
  std::shared_ptr<const CachedClusterRun>
  lookup(const support::Digest &K) {
    return Cache.lookup(K);
  }

  std::shared_ptr<const CachedClusterRun>
  insert(const support::Digest &K, CachedClusterRun Run) {
    uint64_t Bytes = Run.approxBytes();
    return Cache.insert(K, std::move(Run), Bytes);
  }

  /// Attaches \p Store as the persistent tier (see
  /// support/CacheStore.h): winning inserts write their encoded run
  /// through; memory misses attempt revival from disk. Wiring-time
  /// only -- call before the cache sees traffic.
  void attachStore(std::shared_ptr<support::CacheStore> Store);

  support::CacheCounters counters() const { return Cache.counters(); }

private:
  support::ShardedCache<CachedClusterRun> Cache;
};

} // namespace fscs
} // namespace bsaa

#endif // BSAA_FSCS_SUMMARYCACHE_H
