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
/// The cache entry is the engine's exported State (per-key summary
/// tuples + FSCI memo + accounting, and traversal scaffolding only where
/// a later query can still reach it; see SummaryEngine::exportState)
/// plus the dovetail-warmup accounting, so a hit replays
/// *bit-identical* per-cluster metrics and can serve arbitrary further
/// queries through ClusterAliasAnalysis::adoptState. Soundness of the
/// key derivation (why digest equality implies state equality) is
/// argued in DESIGN.md, "Summary-cache key derivation".
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

/// One memoized per-cluster FSCS run.
struct CachedClusterRun {
  SummaryEngine::State Engine; ///< Post-run memoized product.
  DovetailStats Dove;          ///< Warmup accounting to replay.
  SummaryEngine::EngineStats Stats; ///< Aggregate accounting to replay.

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

  /// Byte budget for the in-memory tier (0 = unlimited); see
  /// ShardedCache::setByteBudget.
  void setByteBudget(uint64_t B) { Cache.setByteBudget(B); }

  support::CacheCounters counters() const { return Cache.counters(); }

private:
  support::ShardedCache<CachedClusterRun> Cache;
};

} // namespace fscs
} // namespace bsaa

#endif // BSAA_FSCS_SUMMARYCACHE_H
