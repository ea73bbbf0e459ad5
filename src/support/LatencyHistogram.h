//===- support/LatencyHistogram.h - Sharded latency quantiles ---*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A log-linear latency histogram built for serving hot paths: record()
/// is one relaxed fetch_add into the calling thread's private shard of
/// atomic bucket counters -- no lock, no contention with other
/// recorders -- and quantile extraction merges the shards on demand.
///
/// Buckets are HdrHistogram-style log-linear over nanoseconds: each
/// power-of-two octave is subdivided into SubBuckets linear slots, so
/// relative resolution is bounded by 1/SubBuckets (~6%) across the
/// whole range instead of the 2x a pure power-of-two scheme gives.
/// Quantiles report a bucket's *upper* bound, so p99 never understates
/// the latency an SLO gate is checking.
///
/// Shards are indexed by the recording thread's dense slot
/// (support/ThreadSlots.h): a slot's shard is created on its first
/// record() and owned by the histogram, so counts from exited threads
/// survive (a later thread that reuses the slot keeps adding to them).
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_SUPPORT_LATENCYHISTOGRAM_H
#define BSAA_SUPPORT_LATENCYHISTOGRAM_H

#include "support/ThreadSlots.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace bsaa {
namespace support {

/// Thread-sharded log-linear histogram of nanosecond durations.
class LatencyHistogram {
public:
  /// Linear slots per power-of-two octave. 16 bounds the relative
  /// quantile error at 1/16 = 6.25%.
  static constexpr uint32_t SubBuckets = 16;
  /// Octaves 0..63 cover the whole uint64 nanosecond range.
  static constexpr uint32_t Octaves = 64;
  static constexpr uint32_t NumBuckets = Octaves * SubBuckets;

  LatencyHistogram();
  ~LatencyHistogram();

  LatencyHistogram(const LatencyHistogram &) = delete;
  LatencyHistogram &operator=(const LatencyHistogram &) = delete;

  /// Records one duration. Wait-free against other recorders: a single
  /// relaxed fetch_add in the calling thread's own shard (shard
  /// creation on a slot's first record takes the registry mutex once).
  void record(uint64_t Nanos);

  /// Bucket index for \p Nanos -- exposed for the boundary unit tests.
  static uint32_t bucketIndex(uint64_t Nanos);

  /// Inclusive upper bound of bucket \p Index (the value quantiles
  /// report).
  static uint64_t bucketUpperBound(uint32_t Index);

  /// One merged, immutable view of the counts: take it once, read many
  /// quantiles consistently (concurrent record()s keep landing in the
  /// shards and show up in the next snapshot).
  struct Snapshot {
    std::array<uint64_t, NumBuckets> Counts{};
    uint64_t Total = 0;

    bool empty() const { return Total == 0; }

    /// Smallest recorded upper bound B such that at least
    /// ceil(q * Total) samples are <= B, or nullopt on an empty
    /// snapshot. \p Q is clamped to [0, 1]. This is the form SLO
    /// gates must consume: an idle histogram has *no* p99, which is
    /// not the same as a p99 of 0 ns, and reporting 0 would let a
    /// latency gate pass vacuously on a tenant that served nothing.
    std::optional<uint64_t> quantileNanosIfAny(double Q) const;

    /// Legacy scalar form: quantileNanosIfAny collapsed to 0 on an
    /// empty snapshot. Prefer the optional form anywhere "no data"
    /// and "0 ns" must be distinguishable.
    uint64_t quantileNanos(double Q) const {
      return quantileNanosIfAny(Q).value_or(0);
    }

    std::optional<double> quantileSecondsIfAny(double Q) const {
      auto N = quantileNanosIfAny(Q);
      if (!N)
        return std::nullopt;
      return static_cast<double>(*N) * 1e-9;
    }

    double quantileSeconds(double Q) const {
      return static_cast<double>(quantileNanos(Q)) * 1e-9;
    }

    /// Adds \p Other's counts into this snapshot (cross-histogram
    /// aggregation, e.g. all tenants combined).
    void merge(const Snapshot &Other);
  };

  Snapshot snapshot() const;

  /// Total samples recorded (merged across shards).
  uint64_t count() const { return snapshot().Total; }

private:
  struct Shard {
    std::array<std::atomic<uint64_t>, NumBuckets> Counts{};
  };

  Shard &myShard();

  /// Shard of each thread slot (null until the slot's first record).
  std::array<std::atomic<Shard *>, MaxThreadSlots> BySlot{};
  mutable std::mutex RegistryMutex; ///< Guards Shards (growth only).
  std::vector<std::unique_ptr<Shard>> Shards;
};

} // namespace support
} // namespace bsaa

#endif // BSAA_SUPPORT_LATENCYHISTOGRAM_H
