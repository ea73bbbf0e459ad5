//===- support/FlatContainers.h - Allocation-lean set and FIFO --*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three containers for inner loops that would otherwise live in the
/// allocator:
///
///  * U64HashSet -- an open-addressing (linear probing) set of 64-bit
///    values in one flat slot array. Node-based std::unordered_set pays
///    one heap allocation per element; this pays one per doubling. Every
///    uint64_t value is storable, 0 included (it is tracked out of band
///    because an all-zero slot marks "empty").
///  * U64FlatMap -- the same table with a value beside each key, for
///    lookup-heavy maps that std::map or std::unordered_map would keep
///    as nodes. One key, U64FlatMap::EmptyKey, marks an empty slot and
///    is not storable.
///  * VectorFifo -- a FIFO queue over a vector plus a head index. Unlike
///    std::deque it is nothrow-movable, so a std::vector of structs that
///    hold one relocates by move instead of deep-copying every element,
///    and a drained queue keeps its buffer for the next fill.
///
/// None of them guarantees iteration order; callers that need a
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

namespace detail {
/// Fibonacci hashing: the top bits of V * 2^64/phi. Keys here are
/// usually hashes already, but some are XOR-composed or packed pairs
/// that share low bits; the multiply spreads them over the table.
inline size_t fibonacciSlot(uint64_t V, unsigned Shift) {
  return static_cast<size_t>((V * 0x9e3779b97f4a7c15ull) >> Shift);
}

/// 64 - log2(Slots) for a power-of-2 slot count.
inline unsigned slotShift(size_t Slots) {
  assert((Slots & (Slots - 1)) == 0 && "slot count is a power of 2");
  unsigned Shift = 64;
  for (size_t S = Slots; S > 1; S >>= 1)
    --Shift;
  return Shift;
}

/// The slot count that holds \p N elements below 3/4 load.
inline size_t slotsFor(size_t N, size_t MinSlots) {
  size_t Want = MinSlots;
  while (N * 4 > Want * 3)
    Want *= 2;
  return Want;
}
} // namespace detail

/// Open-addressing set of uint64_t values (see file comment).
class U64HashSet {
public:
  /// True if \p V is in the set.
  bool contains(uint64_t V) const {
    if (V == 0)
      return HasZero;
    if (Slots.empty())
      return false;
    for (size_t I = slotOf(V);; I = (I + 1) & (Slots.size() - 1)) {
      if (Slots[I] == V)
        return true;
      if (Slots[I] == 0)
        return false;
    }
  }

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
    size_t Want = detail::slotsFor(N, MinSlots);
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

  size_t slotOf(uint64_t V) const { return detail::fibonacciSlot(V, Shift); }

  void rehash(size_t NewSlots) {
    std::vector<uint64_t> Old = std::move(Slots);
    Slots.assign(NewSlots, 0);
    Shift = detail::slotShift(NewSlots);
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

/// Open-addressing map from uint64_t keys to T values (see file
/// comment). Inserting may move every value: pointers and references
/// returned by find() and operator[] last until the next insertion.
template <typename T> class U64FlatMap {
public:
  /// Marks an empty slot; never a key.
  static constexpr uint64_t EmptyKey = ~uint64_t(0);

  const T *find(uint64_t K) const {
    if (Slots.empty())
      return nullptr;
    for (size_t I = slotOf(K);; I = (I + 1) & (Slots.size() - 1)) {
      if (Slots[I].Key == K)
        return &Slots[I].Value;
      if (Slots[I].Key == EmptyKey)
        return nullptr;
    }
  }

  /// The value of \p K, default-constructed first if absent.
  /// Precondition: K != EmptyKey.
  T &operator[](uint64_t K) {
    assert(K != EmptyKey && "the empty-slot marker is not a key");
    // Grow at 3/4 load (counting a new element), as U64HashSet does.
    if ((Count + 1) * 4 > Slots.size() * 3)
      rehash(Slots.empty() ? MinSlots : Slots.size() * 2);
    size_t I = slotOf(K);
    while (Slots[I].Key != EmptyKey) {
      if (Slots[I].Key == K)
        return Slots[I].Value;
      I = (I + 1) & (Slots.size() - 1);
    }
    Slots[I].Key = K;
    ++Count;
    return Slots[I].Value;
  }

  /// Makes room for \p N elements without further growth.
  void reserve(size_t N) {
    size_t Want = detail::slotsFor(N, MinSlots);
    if (Want > Slots.size())
      rehash(Want);
  }

  /// Visits every (key, value) exactly once, in unspecified order.
  template <typename Fn> void forEach(Fn &&F) const {
    for (const Slot &S : Slots)
      if (S.Key != EmptyKey)
        F(S.Key, S.Value);
  }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  /// Allocated slots.
  size_t capacity() const { return Slots.size(); }
  /// Bytes of the slot array: what the map costs in memory besides what
  /// its values hold on the heap.
  size_t slotBytes() const { return Slots.size() * sizeof(Slot); }

  /// Same keys with equal values, whatever either table's capacity and
  /// insertion history.
  friend bool operator==(const U64FlatMap &A, const U64FlatMap &B) {
    if (A.size() != B.size())
      return false;
    for (const Slot &S : A.Slots) {
      if (S.Key == EmptyKey)
        continue;
      const T *Other = B.find(S.Key);
      if (!Other || !(*Other == S.Value))
        return false;
    }
    return true;
  }

private:
  static constexpr size_t MinSlots = 8;

  struct Slot {
    uint64_t Key = EmptyKey;
    T Value{};
  };

  size_t slotOf(uint64_t K) const { return detail::fibonacciSlot(K, Shift); }

  void rehash(size_t NewSlots) {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(NewSlots, Slot());
    Shift = detail::slotShift(NewSlots);
    for (Slot &S : Old) {
      if (S.Key == EmptyKey)
        continue;
      size_t I = slotOf(S.Key);
      while (Slots[I].Key != EmptyKey)
        I = (I + 1) & (Slots.size() - 1);
      Slots[I].Key = S.Key;
      Slots[I].Value = std::move(S.Value);
    }
  }

  std::vector<Slot> Slots; ///< Size is 0 or a power of 2.
  size_t Count = 0;
  unsigned Shift = 64; ///< 64 - log2(Slots.size()).
};

/// FIFO queue over a vector plus a head index (see file comment).
template <typename T> class VectorFifo {
public:
  void push_back(T V) { Items.push_back(std::move(V)); }
  template <typename... Args> void emplace_back(Args &&...A) {
    Items.emplace_back(std::forward<Args>(A)...);
  }

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
