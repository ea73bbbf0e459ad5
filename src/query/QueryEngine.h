//===- query/QueryEngine.h - Concurrent alias query serving -----*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving front end over QuerySnapshot:
///
///  * QueryEngine multiplexes queries onto the current snapshot.
///    read() pins it through the calling thread's reader slot -- two
///    stores to a cache line no other thread writes plus one atomic
///    load -- without a lock and without touching the shared_ptr
///    refcount, both of which serialized four warm clients on one
///    line. publish() swaps snapshots without waiting for readers: a
///    reader that pinned the old snapshot keeps answering against it,
///    because publish() retires the old owner and releases it only
///    once every reader slot that was active at the swap has exited
///    (checked at publish(), in snapshot() and in the destructor). No
///    update blocks in-flight queries and no reader ever observes a
///    half-updated view. snapshot() still hands out shared_ptrs, under
///    a mutex, for callers that pin a version across many calls.
///  * evalMayAlias() runs a query batch against one pinned snapshot.
///  * AliasService glues core::IncrementalDriver to the engine:
///    update(program) re-analyzes incrementally, builds a fresh
///    snapshot over the driver's solved cover, results and caches, and
///    publishes it. Derived checkers (racecheck::RaceCheckService)
///    call update() and then re-derive their verdicts from the
///    returned report and engine().snapshot().
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_QUERY_QUERYENGINE_H
#define BSAA_QUERY_QUERYENGINE_H

#include "core/IncrementalDriver.h"
#include "query/QuerySnapshot.h"
#include "support/ThreadSlots.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

namespace bsaa {
namespace query {

/// One may-alias request in a batch.
struct MayAliasQuery {
  ir::VarId A = ir::InvalidVar;
  ir::VarId B = ir::InvalidVar;
  /// Location to evaluate at; InvalidLoc means the canonical location
  /// (see canonicalAliasLoc).
  ir::LocId Loc = ir::InvalidLoc;
};

/// Thread-safe query front end over an atomically swappable snapshot.
class QueryEngine {
public:
  QueryEngine() = default;
  /// Precondition: no read() is in flight.
  ~QueryEngine();

  QueryEngine(const QueryEngine &) = delete;
  QueryEngine &operator=(const QueryEngine &) = delete;

  /// Installs \p Snap as the snapshot served from now on. Queries
  /// already running against the previous snapshot finish against it
  /// unperturbed; it is released (outside the lock) once they have all
  /// exited -- here, or at a later publish() or snapshot().
  void publish(std::shared_ptr<const QuerySnapshot> Snap);

  /// The snapshot currently served (null before the first publish).
  /// Holding the returned pointer pins that version for as long as the
  /// caller needs consistent multi-query reads.
  std::shared_ptr<const QuerySnapshot> snapshot() const;

  bool hasSnapshot() const {
    return Current.load(std::memory_order_acquire) != nullptr;
  }

  /// Calls \p F with the current snapshot (null before the first
  /// publish), pinned for the duration of the call, and returns its
  /// result. The pin is lock-free and per thread; \p F may nest
  /// further reads but must not keep the pointer past its return.
  template <class Fn> decltype(auto) read(Fn &&F) const {
    Pin P(*this);
    return F(P.get());
  }

  /// Single-query conveniences. Precondition: a snapshot is published.
  AliasAnswer mayAlias(ir::VarId A, ir::VarId B) const;
  AliasAnswer mayAliasAt(ir::VarId A, ir::VarId B, ir::LocId Loc) const;
  PointsToAnswer pointsToAt(ir::VarId V, ir::LocId Loc) const;

  /// Evaluates \p Queries against one consistent snapshot and returns
  /// the verdicts index-aligned (1 = may alias).
  std::vector<uint8_t>
  evalMayAlias(const std::vector<MayAliasQuery> &Queries) const;

private:
  /// A thread's reader slot. Seq is odd while the thread is inside a
  /// read() (outermost level; Depth counts nesting) and moves on every
  /// enter and exit, so "Seq differs from the odd value recorded at a
  /// swap" means the reader active at the swap has exited.
  struct ReaderSlot {
    std::atomic<uint64_t> Seq{0};
    uint32_t Depth = 0; ///< Only the owning thread touches it.
  };

  /// Pins the current snapshot for one read(). Threads beyond
  /// support::MaxThreadSlots have no slot of their own and pin through
  /// a snapshot() shared_ptr instead.
  class Pin {
  public:
    explicit Pin(const QueryEngine &E);
    ~Pin();
    Pin(const Pin &) = delete;
    Pin &operator=(const Pin &) = delete;
    const QuerySnapshot *get() const { return Snap; }

  private:
    ReaderSlot *Slot = nullptr;
    const QuerySnapshot *Snap = nullptr;
    std::shared_ptr<const QuerySnapshot> Held;
  };

  /// An owner replaced by publish(), with the (slot, odd Seq) pairs of
  /// the readers active at the swap.
  struct Retired {
    std::shared_ptr<const QuerySnapshot> Snap;
    std::vector<std::pair<unsigned, uint64_t>> Waits;
  };

  /// Moves every retired owner whose readers have all exited into
  /// \p Free (destroyed by the caller, outside the lock). Caller holds
  /// OwnerMutex.
  void reclaimLocked(
      std::vector<std::shared_ptr<const QuerySnapshot>> &Free) const;

  /// The served snapshot, as read by Pin.
  std::atomic<const QuerySnapshot *> Current{nullptr};
  mutable support::PerThread<ReaderSlot> Readers;

  mutable std::mutex OwnerMutex; ///< Guards Owner and RetiredOwners.
  std::shared_ptr<const QuerySnapshot> Owner; ///< Owns *Current.
  mutable std::vector<Retired> RetiredOwners;
};

/// IncrementalDriver + QueryEngine, wired so that every program update
/// atomically becomes the served snapshot.
class AliasService {
public:
  /// \p QOpts.EngineOpts is overwritten with the driver's engine
  /// options: materialization must run the cascade's configuration for
  /// SummaryCache adoption to hit (and for flagged-cluster bookkeeping
  /// to mean the same thing on both sides).
  explicit AliasService(core::BootstrapOptions BOpts,
                        QueryOptions QOpts = QueryOptions());

  /// Re-analyzes \p NewProg incrementally and publishes the resulting
  /// snapshot. In-flight queries keep reading the previous snapshot
  /// until they complete.
  core::UpdateReport update(std::unique_ptr<ir::Program> NewProg);

  QueryEngine &engine() { return Engine; }
  const QueryEngine &engine() const { return Engine; }
  core::IncrementalDriver &driver() { return Inc; }

private:
  core::IncrementalDriver Inc;
  QueryOptions QOpts;
  QueryEngine Engine;
};

} // namespace query
} // namespace bsaa

#endif // BSAA_QUERY_QUERYENGINE_H
