//===- support/FlatContainers.h - Allocation-lean set and FIFO --*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two containers for inner loops that would otherwise live in the
/// allocator:
///
///  * U64HashSet -- an open-addressing (linear probing) set of 64-bit
///    values in one flat slot array. Node-based std::unordered_set pays
///    one heap allocation per element; this pays one per doubling. Every
///    uint64_t value is storable, 0 included (it is tracked out of band
///    because an all-zero slot marks "empty").
///  * VectorFifo -- a FIFO queue over a vector plus a head index. Unlike
///    std::deque it is nothrow-movable, so a std::vector of structs that
///    hold one relocates by move instead of deep-copying every element,
///    and a drained queue keeps its buffer for the next fill.
///
/// Neither container guarantees iteration order; callers that need a
/// deterministic order (serialization) sort what forEach() visits.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_SUPPORT_FLATCONTAINERS_H
#define BSAA_SUPPORT_FLATCONTAINERS_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bsaa {

/// Open-addressing set of uint64_t values (see file comment).
class U64HashSet {
public:
  /// Inserts \p V; returns true if it was not already present.
  bool insert(uint64_t V) {
    if (V == 0) {
      if (HasZero)
        return false;
      HasZero = true;
      ++Count;
      return true;
    }
    // Grow at 3/4 load (counting the new element), so probes stay short
    // and an empty slot always exists.
    if ((Count + 1) * 4 > Slots.size() * 3)
      rehash(Slots.empty() ? MinSlots : Slots.size() * 2);
    size_t I = slotOf(V);
    while (Slots[I] != 0) {
      if (Slots[I] == V)
        return false;
      I = (I + 1) & (Slots.size() - 1);
    }
    Slots[I] = V;
    ++Count;
    return true;
  }

  /// Makes room for \p N elements without further growth.
  void reserve(size_t N) {
    size_t Want = MinSlots;
    while (N * 4 > Want * 3)
      Want *= 2;
    if (Want > Slots.size())
      rehash(Want);
  }

  /// Visits every element exactly once, in unspecified order.
  template <typename Fn> void forEach(Fn &&F) const {
    if (HasZero)
      F(uint64_t(0));
    for (uint64_t V : Slots)
      if (V != 0)
        F(V);
  }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  /// Allocated slots (what the set costs in memory, 8 bytes each).
  size_t capacity() const { return Slots.size(); }

private:
  static constexpr size_t MinSlots = 8;

  /// Fibonacci hashing: the top bits of V * 2^64/phi. Values here are
  /// usually hashes already, but some are XOR-composed and share low
  /// bits; the multiply spreads them over the table.
  size_t slotOf(uint64_t V) const {
    return static_cast<size_t>((V * 0x9e3779b97f4a7c15ull) >> Shift);
  }

  void rehash(size_t NewSlots) {
    assert((NewSlots & (NewSlots - 1)) == 0 && "slot count is a power of 2");
    std::vector<uint64_t> Old = std::move(Slots);
    Slots.assign(NewSlots, 0);
    Shift = 64;
    for (size_t S = NewSlots; S > 1; S >>= 1)
      --Shift;
    for (uint64_t V : Old) {
      if (V == 0)
        continue;
      size_t I = slotOf(V);
      while (Slots[I] != 0)
        I = (I + 1) & (Slots.size() - 1);
      Slots[I] = V;
    }
  }

  std::vector<uint64_t> Slots; ///< 0 = empty; size is 0 or a power of 2.
  size_t Count = 0;            ///< Elements, the zero value included.
  unsigned Shift = 64;         ///< 64 - log2(Slots.size()).
  bool HasZero = false;
};

/// FIFO queue over a vector plus a head index (see file comment).
template <typename T> class VectorFifo {
public:
  void push_back(T V) { Items.push_back(std::move(V)); }

  /// The oldest element. Precondition: !empty().
  T &front() { return Items[Head]; }

  /// Drops the oldest element. Precondition: !empty(). A drained queue
  /// rewinds to the start of its buffer; a queue that never drains
  /// compacts once the consumed prefix outweighs the live part.
  void pop_front() {
    ++Head;
    if (Head == Items.size()) {
      Items.clear();
      Head = 0;
    } else if (Head >= 32 && Head * 2 >= Items.size()) {
      Items.erase(Items.begin(), Items.begin() + Head);
      Head = 0;
    }
  }

  bool empty() const { return Head == Items.size(); }
  /// Allocated element slots.
  size_t capacity() const { return Items.capacity(); }

  void clear() {
    Items.clear();
    Head = 0;
  }

private:
  std::vector<T> Items;
  size_t Head = 0;
};

} // namespace bsaa

#endif // BSAA_SUPPORT_FLATCONTAINERS_H
