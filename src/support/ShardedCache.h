//===- support/ShardedCache.h - Content-addressed cache ---------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe content-addressed cache shared across cluster workers.
/// Keys are 128-bit content Digests; values are immutable once inserted
/// and handed out as shared_ptr<const V>, so a hit never copies the
/// payload under a lock and a concurrently cleared cache cannot pull an
/// entry out from under a reader.
///
/// The bucket space is sharded by key bits with one mutex per shard:
/// there is no global lock anywhere on the hit path, so workers
/// analyzing different clusters only contend when their keys land in the
/// same shard. Hit/miss/insert/byte counters are relaxed atomics --
/// they feed the --stats-json accounting, not any synchronization.
///
/// Inserts are first-wins: if two workers race to publish the same key
/// (which, keys being content hashes, means they computed identical
/// values), the second insert is dropped. This keeps reads repeatable
/// within a run.
///
/// An optional persistent CacheStore backing (attachStore) extends the
/// in-memory map: lookups falling through the map consult the store
/// and, on a decodable record of the expected codec version, re-publish
/// the value in memory; winning inserts write through. Anything wrong
/// with the stored bytes -- absent key, version skew, failed decode --
/// is just a miss, so a corrupt store can cost time, never correctness.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_SUPPORT_SHARDEDCACHE_H
#define BSAA_SUPPORT_SHARDEDCACHE_H

#include "support/CacheStore.h"
#include "support/ContentHash.h"

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace bsaa {
namespace support {

/// Cache accounting exported to stats JSON and tests.
struct CacheCounters {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Inserts = 0;
  uint64_t Bytes = 0; ///< Approximate payload bytes currently held.
  uint64_t StoreHits = 0;   ///< Memory misses served from the store.
  uint64_t StoreMisses = 0; ///< Memory misses the store couldn't serve.
  uint64_t StorePuts = 0;   ///< Winning inserts written through.

  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total ? double(Hits) / double(Total) : 0.0;
  }
  /// Of the lookups that missed memory, the fraction the store served
  /// -- the warm-restart figure of merit.
  double storeHitRate() const {
    uint64_t Total = StoreHits + StoreMisses;
    return Total ? double(StoreHits) / double(Total) : 0.0;
  }
};

/// How a ShardedCache talks to its persistent tier: one codec (a
/// family tag, a version byte, encode/decode functions) plus a byte
/// estimator for entries revived from disk.
template <typename V> struct CacheStoreBacking {
  std::shared_ptr<CacheStore> Store;
  uint8_t Family = 0;
  uint8_t Version = 0;
  /// Serializes \p V into the writer. Must be deterministic.
  std::function<void(const V &, ByteWriter &)> Encode;
  /// Decodes a payload into \p Out; returns false (never throws) on any
  /// malformed input.
  std::function<bool(const uint8_t *, size_t, V &)> Decode;
  /// Byte-gauge estimate for a value revived from the store (same scale
  /// as the ApproxBytes the original insert would have charged).
  std::function<uint64_t(const V &)> ApproxBytes;

  explicit operator bool() const { return Store != nullptr; }
};

/// Sharded content-addressed map from Digest to immutable values.
template <typename V> class ShardedCache {
public:
  explicit ShardedCache(size_t NumShards = 16)
      : Shards(NumShards ? NumShards : 1) {}

  /// Attaches the persistent tier. Not thread-safe: call before the
  /// cache sees traffic (construction-time wiring).
  void attachStore(CacheStoreBacking<V> B) { Backing = std::move(B); }

  /// Returns the cached value or nullptr; bumps the hit/miss counter.
  /// On a memory miss with a store attached, attempts revival from
  /// disk (counted as StoreHits + Hits when it succeeds).
  std::shared_ptr<const V> lookup(const Digest &K) {
    Shard &S = shardFor(K);
    std::shared_ptr<const V> Out;
    {
      std::lock_guard<std::mutex> Lock(S.M);
      auto It = S.Map.find(K);
      if (It != S.Map.end())
        Out = It->second;
    }
    if (Out) {
      Hits.fetch_add(1, std::memory_order_relaxed);
      return Out;
    }
    if (Backing) {
      Out = reviveFromStore(K);
      if (Out) {
        Hits.fetch_add(1, std::memory_order_relaxed);
        return Out;
      }
    }
    Misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }

  /// Publishes \p Val under \p K (first insert wins). \p ApproxBytes is
  /// the caller's payload-size estimate for the byte gauge. Returns the
  /// value now cached under the key.
  ///
  /// A racing loser pays nothing: the key is checked under the shard
  /// lock *before* the shared_ptr copy is constructed or any bytes are
  /// charged, so losing the first-wins race costs one map probe.
  std::shared_ptr<const V> insert(const Digest &K, V Val,
                                  uint64_t ApproxBytes) {
    Shard &S = shardFor(K);
    {
      std::lock_guard<std::mutex> Lock(S.M);
      auto It = S.Map.find(K);
      if (It != S.Map.end())
        return It->second;
    }
    auto Entry = std::make_shared<const V>(std::move(Val));
    return publish(S, K, std::move(Entry), ApproxBytes, /*Revived=*/false);
  }

  CacheCounters counters() const {
    CacheCounters C;
    C.Hits = Hits.load(std::memory_order_relaxed);
    C.Misses = Misses.load(std::memory_order_relaxed);
    C.Inserts = Inserts.load(std::memory_order_relaxed);
    C.Bytes = Bytes.load(std::memory_order_relaxed);
    C.StoreHits = StoreHits.load(std::memory_order_relaxed);
    C.StoreMisses = StoreMisses.load(std::memory_order_relaxed);
    C.StorePuts = StorePuts.load(std::memory_order_relaxed);
    return C;
  }

private:
  struct Shard {
    std::mutex M;
    std::unordered_map<Digest, std::shared_ptr<const V>, DigestHash> Map;
  };

  Shard &shardFor(const Digest &K) {
    // Hi is independent of the map hasher's Lo, so shard choice does
    // not correlate with in-shard bucket placement.
    return Shards[K.Hi % Shards.size()];
  }

  /// Inserts \p Entry under \p K unless a racer got there first; on a
  /// win, charges the gauge. A computed entry also bumps Inserts and
  /// writes through to the store; a \p Revived one (read from the
  /// store) does neither: revivals would skew insert-vs-compute
  /// accounting, and writing back what was just read is pointless.
  /// Returns the value now cached under the key.
  std::shared_ptr<const V> publish(Shard &S, const Digest &K,
                                   std::shared_ptr<const V> Entry,
                                   uint64_t ApproxBytes, bool Revived) {
    {
      std::lock_guard<std::mutex> Lock(S.M);
      auto [It, New] = S.Map.try_emplace(K, Entry);
      if (!New)
        return It->second;
    }
    Bytes.fetch_add(ApproxBytes, std::memory_order_relaxed);
    if (!Revived)
      Inserts.fetch_add(1, std::memory_order_relaxed);
    if (!Revived && Backing && Backing.Encode) {
      // Encode outside every lock: the store is the slow tier and the
      // payload is immutable.
      ByteWriter W;
      Backing.Encode(*Entry, W);
      if (Backing.Store->put(K, Backing.Family, Backing.Version, W.bytes()))
        StorePuts.fetch_add(1, std::memory_order_relaxed);
    }
    return Entry;
  }

  /// Memory-miss path: consult the store, decode, re-publish. Returns
  /// nullptr (and counts a StoreMiss) unless a record with the expected
  /// family and version decodes cleanly.
  std::shared_ptr<const V> reviveFromStore(const Digest &K) {
    auto Rec = Backing.Store->get(K, Backing.Family);
    if (Rec && Rec->Version == Backing.Version && Backing.Decode) {
      V Val;
      if (Backing.Decode(Rec->Payload.data(), Rec->Payload.size(), Val)) {
        uint64_t B = Backing.ApproxBytes ? Backing.ApproxBytes(Val) : 0;
        auto Entry = std::make_shared<const V>(std::move(Val));
        StoreHits.fetch_add(1, std::memory_order_relaxed);
        return publish(shardFor(K), K, std::move(Entry), B,
                       /*Revived=*/true);
      }
    }
    StoreMisses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }

  std::vector<Shard> Shards;
  CacheStoreBacking<V> Backing;
  std::atomic<uint64_t> Hits{0}, Misses{0}, Inserts{0}, Bytes{0};
  std::atomic<uint64_t> StoreHits{0}, StoreMisses{0}, StorePuts{0};
};

} // namespace support
} // namespace bsaa

#endif // BSAA_SUPPORT_SHARDEDCACHE_H
