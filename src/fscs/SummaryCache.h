//===- fscs/SummaryCache.h - Cross-cluster summary memoization --*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, content-addressed memoization layer for per-cluster
/// FSCS runs, shared across cluster workers and across driver
/// instances. The disjunctive alias cover (Theorem 7) produces
/// overlapping clusters, and ablation harnesses run the same program
/// through several cascade configurations; whenever two runs analyze a
/// cluster with the same members, relevant-statement slice, tracked
/// refs, and engine options over the same program, the second run hits
/// the cache instead of re-running SummaryEngine.
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

#include "core/Cluster.h"
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

/// Content-addressed digest of everything a per-cluster FSCS run
/// depends on: the program (by fingerprint), the cluster's members,
/// relevant-statement slice and tracked refs, and the
/// summary-affecting engine options.
support::Digest clusterSummaryKey(uint64_t ProgramFingerprint,
                                  const core::Cluster &C,
                                  const SummaryEngine::Options &Opts);

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

  /// Publishes an already-cached run under an additional key. The
  /// incremental driver stores every run under both its exact-program
  /// key and its dependency-scope key (core/ClusterDependencies.h);
  /// aliasing shares the payload instead of duplicating it, and the
  /// byte gauge is charged only once.
  std::shared_ptr<const CachedClusterRun>
  insertAlias(const support::Digest &K,
              std::shared_ptr<const CachedClusterRun> Run) {
    return Cache.insertShared(K, std::move(Run), /*ApproxBytes=*/0);
  }

  /// Attaches \p Store as the persistent tier (see
  /// support/CacheStore.h): winning inserts write their encoded run
  /// through; memory misses attempt revival from disk. Wiring-time
  /// only -- call before the cache sees traffic.
  void attachStore(std::shared_ptr<support::CacheStore> Store);

  bool hasStore() const { return Cache.hasStore(); }

  /// Byte budget for the in-memory tier (0 = unlimited); see
  /// ShardedCache::setByteBudget.
  void setByteBudget(uint64_t B) { Cache.setByteBudget(B); }

  support::CacheCounters counters() const { return Cache.counters(); }
  uint64_t size() const { return Cache.size(); }
  void clear() { Cache.clear(); }

private:
  support::ShardedCache<CachedClusterRun> Cache;
};

} // namespace fscs
} // namespace bsaa

#endif // BSAA_FSCS_SUMMARYCACHE_H
