//===- support/LatencyHistogram.cpp - Sharded latency quantiles -----------===//

#include "support/LatencyHistogram.h"

#include <algorithm>

using namespace bsaa;
using namespace bsaa::support;

LatencyHistogram::LatencyHistogram() = default;

LatencyHistogram::~LatencyHistogram() = default;

uint32_t LatencyHistogram::bucketIndex(uint64_t Nanos) {
  // Values below SubBuckets get one bucket each (octave log2(SubBuckets)
  // and below are degenerate: fewer than SubBuckets integers per
  // octave). The first "real" octave starts at SubBuckets.
  if (Nanos < SubBuckets)
    return static_cast<uint32_t>(Nanos);
  // Octave = floor(log2(Nanos)); sub-slot = the SubBuckets linear
  // slices of [2^Octave, 2^(Octave+1)). Octave log2(SubBuckets) is the
  // first one with SubBuckets distinct values; the degenerate values
  // 0..SubBuckets-1 occupy the first SubBuckets indices (exactly one
  // octave's worth), so the layout lines up with no gaps.
  constexpr uint32_t FirstOctave = [] {
    uint32_t L = 0;
    while ((uint32_t(1) << L) < SubBuckets)
      ++L;
    return L;
  }();
  uint32_t Octave = 63 - static_cast<uint32_t>(__builtin_clzll(Nanos));
  uint64_t Base = uint64_t(1) << Octave;
  // (Nanos - Base) / 2^(Octave - FirstOctave): shift form of
  // (Nanos - Base) * SubBuckets / 2^Octave that cannot overflow.
  uint32_t Sub = static_cast<uint32_t>((Nanos - Base) >>
                                       (Octave - FirstOctave));
  uint32_t Index = (Octave - FirstOctave + 1) * SubBuckets + Sub;
  return std::min(Index, NumBuckets - 1);
}

uint64_t LatencyHistogram::bucketUpperBound(uint32_t Index) {
  if (Index < SubBuckets)
    return Index;
  constexpr uint32_t FirstOctave = [] {
    uint32_t L = 0;
    while ((uint32_t(1) << L) < SubBuckets)
      ++L;
    return L;
  }();
  uint32_t Octave = Index / SubBuckets - 1 + FirstOctave;
  uint32_t Sub = Index % SubBuckets;
  uint64_t Base = uint64_t(1) << Octave;
  // Inclusive upper bound of the sub-slot: one below the next slot's
  // first value. The shift form keeps the top octave exact (the Sub=15
  // slot of octave 63 wraps to exactly UINT64_MAX).
  return Base + ((uint64_t(Sub) + 1) << (Octave - FirstOctave)) - 1;
}

LatencyHistogram::Shard &LatencyHistogram::myShard() {
  std::atomic<Shard *> &Slot = BySlot[threadSlot() % MaxThreadSlots];
  if (Shard *S = Slot.load(std::memory_order_acquire))
    return *S;
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  if (Shard *S = Slot.load(std::memory_order_relaxed))
    return *S; // Slots past MaxThreadSlots share; another sharer won.
  Shards.push_back(std::make_unique<Shard>());
  Slot.store(Shards.back().get(), std::memory_order_release);
  return *Shards.back();
}

void LatencyHistogram::record(uint64_t Nanos) {
  myShard().Counts[bucketIndex(Nanos)].fetch_add(1,
                                                 std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot S;
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  for (const std::unique_ptr<Shard> &Sh : Shards)
    for (uint32_t I = 0; I < NumBuckets; ++I) {
      uint64_t C = Sh->Counts[I].load(std::memory_order_relaxed);
      S.Counts[I] += C;
      S.Total += C;
    }
  return S;
}

std::optional<uint64_t>
LatencyHistogram::Snapshot::quantileNanosIfAny(double Q) const {
  if (Total == 0)
    return std::nullopt;
  Q = std::min(1.0, std::max(0.0, Q));
  // Rank of the target sample, 1-based: ceil(Q * Total), at least 1.
  uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Total));
  if (static_cast<double>(Rank) < Q * static_cast<double>(Total))
    ++Rank;
  Rank = std::max<uint64_t>(1, std::min(Rank, Total));
  uint64_t Seen = 0;
  for (uint32_t I = 0; I < NumBuckets; ++I) {
    Seen += Counts[I];
    if (Seen >= Rank)
      return bucketUpperBound(I);
  }
  return bucketUpperBound(NumBuckets - 1);
}

void LatencyHistogram::Snapshot::merge(const Snapshot &Other) {
  for (uint32_t I = 0; I < NumBuckets; ++I)
    Counts[I] += Other.Counts[I];
  Total += Other.Total;
}
