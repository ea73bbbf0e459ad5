//===- support/ThreadSlots.h - Dense per-thread slots -----------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one per-thread sharding primitive the serving hot path uses:
///
///  * threadSlot() gives every live thread a small dense integer -- the
///    smallest one no other live thread holds. A thread keeps its slot
///    for its whole lifetime and returns it on exit, so slot numbers
///    stay below the peak number of concurrently live threads no matter
///    how many threads a process creates over time;
///  * PerThread<T> is an array of cache-line-padded T indexed by slot.
///    Each live thread below MaxThreadSlots owns its element alone, so
///    writers on different threads never share a cache line.
///
/// ShardedCounters (relaxed per-thread counters summed on read) and
/// query::QueryEngine's reader slots are both built on it.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_SUPPORT_THREADSLOTS_H
#define BSAA_SUPPORT_THREADSLOTS_H

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace bsaa {
namespace support {

/// Capacity of every PerThread array. Threads whose slot is at or
/// beyond it share elements (slot modulo capacity); users that need an
/// element of their own check the slot against it first.
constexpr unsigned MaxThreadSlots = 128;

/// Size of the cache line per-thread elements are padded to.
constexpr size_t CacheLine = 64;

namespace detail {
constexpr unsigned NoSlot = ~0u;
/// The calling thread's slot, NoSlot until its first threadSlot().
inline thread_local unsigned CachedSlot = NoSlot;
unsigned acquireThreadSlot();
} // namespace detail

/// The calling thread's dense slot (see the file comment).
inline unsigned threadSlot() {
  unsigned S = detail::CachedSlot;
  return S != detail::NoSlot ? S : detail::acquireThreadSlot();
}

/// One more than the largest slot ever handed out: every slot a thread
/// holds or held is below it, so scans over PerThread arrays can stop
/// there.
unsigned threadSlotBound();

/// MaxThreadSlots cache-line-padded elements, one per thread slot.
template <class T> class PerThread {
public:
  PerThread() : Elems(new Padded[MaxThreadSlots]) {}

  /// The calling thread's element.
  T &local() { return Elems[threadSlot() % MaxThreadSlots].Value; }

  T &operator[](unsigned Slot) { return Elems[Slot].Value; }
  const T &operator[](unsigned Slot) const { return Elems[Slot].Value; }

  /// Number of elements any thread may have touched so far.
  unsigned usedSlots() const {
    return std::min(threadSlotBound(), MaxThreadSlots);
  }

private:
  struct alignas(CacheLine) Padded {
    T Value{};
  };
  std::unique_ptr<Padded[]> Elems;
};

/// N monotone counters, sharded per thread: add() is one relaxed
/// fetch_add on the caller's own cache line, sum() merges the shards.
template <size_t N> class ShardedCounters {
public:
  void add(size_t I, uint64_t Delta = 1) {
    Shards.local()[I].fetch_add(Delta, std::memory_order_relaxed);
  }

  uint64_t sum(size_t I) const {
    uint64_t Total = 0;
    for (unsigned S = 0, E = Shards.usedSlots(); S < E; ++S)
      Total += Shards[S][I].load(std::memory_order_relaxed);
    return Total;
  }

private:
  PerThread<std::array<std::atomic<uint64_t>, N>> Shards;
};

} // namespace support
} // namespace bsaa

#endif // BSAA_SUPPORT_THREADSLOTS_H
