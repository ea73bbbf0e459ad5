//===- query/QueryEngine.cpp - Concurrent alias query serving -------------===//

#include "query/QueryEngine.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <mutex>

using namespace bsaa;
using namespace bsaa::query;

//===----------------------------------------------------------------------===//
// QueryEngine
//===----------------------------------------------------------------------===//

QueryEngine::Pin::Pin(const QueryEngine &E) {
  unsigned S = support::threadSlot();
  if (S >= support::MaxThreadSlots) {
    Held = E.snapshot();
    Snap = Held.get();
    return;
  }
  Slot = &E.Readers[S];
  // The slot's Seq store and publish()'s Current store, and this
  // Current load and publish()'s slot loads, are all seq_cst: either
  // publish() sees this slot active, or this load sees its snapshot.
  if (Slot->Depth++ == 0)
    Slot->Seq.store(Slot->Seq.load(std::memory_order_relaxed) + 1,
                    std::memory_order_seq_cst);
  Snap = E.Current.load(std::memory_order_seq_cst);
}

QueryEngine::Pin::~Pin() {
  // Release: every read of the snapshot happens before the reclaimer
  // that observes this store frees it.
  if (Slot && --Slot->Depth == 0)
    Slot->Seq.store(Slot->Seq.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
}

QueryEngine::~QueryEngine() {
  std::vector<std::shared_ptr<const QuerySnapshot>> Free;
  std::lock_guard<std::mutex> Lock(OwnerMutex);
  reclaimLocked(Free);
  assert(RetiredOwners.empty() && "QueryEngine destroyed during a read()");
}

void QueryEngine::reclaimLocked(
    std::vector<std::shared_ptr<const QuerySnapshot>> &Free) const {
  auto Exited = [this](const Retired &R) {
    for (const std::pair<unsigned, uint64_t> &W : R.Waits)
      if (Readers[W.first].Seq.load(std::memory_order_acquire) == W.second)
        return false;
    return true;
  };
  RetiredOwners.erase(std::remove_if(RetiredOwners.begin(),
                                     RetiredOwners.end(),
                                     [&](Retired &R) {
                                       if (!Exited(R))
                                         return false;
                                       Free.push_back(std::move(R.Snap));
                                       return true;
                                     }),
                      RetiredOwners.end());
}

void QueryEngine::publish(std::shared_ptr<const QuerySnapshot> Snap) {
  std::vector<std::shared_ptr<const QuerySnapshot>> Free;
  {
    std::lock_guard<std::mutex> Lock(OwnerMutex);
    Retired Old;
    Old.Snap = std::move(Owner);
    Owner = std::move(Snap);
    Current.store(Owner.get(), std::memory_order_seq_cst);
    if (Old.Snap) {
      // Every slot, not just those handed out so far: a thread that
      // takes a new slot right now pins after this swap anyway, but
      // scanning them all needs no ordering argument about the bound.
      for (unsigned S = 0; S < support::MaxThreadSlots; ++S) {
        uint64_t Seq = Readers[S].Seq.load(std::memory_order_seq_cst);
        if (Seq & 1)
          Old.Waits.emplace_back(S, Seq);
      }
      RetiredOwners.push_back(std::move(Old));
    }
    reclaimLocked(Free);
  }
  // Free's destructors (potentially the last reference to a whole
  // analysis snapshot) run here, after the lock is dropped.
}

std::shared_ptr<const QuerySnapshot> QueryEngine::snapshot() const {
  std::vector<std::shared_ptr<const QuerySnapshot>> Free;
  std::lock_guard<std::mutex> Lock(OwnerMutex);
  reclaimLocked(Free);
  return Owner;
}

AliasAnswer QueryEngine::mayAlias(ir::VarId A, ir::VarId B) const {
  return read([&](const QuerySnapshot *S) {
    assert(S && "query before the first publish()");
    return S->mayAlias(A, B);
  });
}

AliasAnswer QueryEngine::mayAliasAt(ir::VarId A, ir::VarId B,
                                    ir::LocId Loc) const {
  return read([&](const QuerySnapshot *S) {
    assert(S && "query before the first publish()");
    return S->mayAliasAt(A, B, Loc);
  });
}

PointsToAnswer QueryEngine::pointsToAt(ir::VarId V, ir::LocId Loc) const {
  return read([&](const QuerySnapshot *S) {
    assert(S && "query before the first publish()");
    return S->pointsToAt(V, Loc);
  });
}

std::vector<uint8_t>
QueryEngine::evalMayAlias(const std::vector<MayAliasQuery> &Queries) const {
  return read([&Queries](const QuerySnapshot *S) {
    assert(S && "query before the first publish()");
    std::vector<uint8_t> Results(Queries.size(), 0);
    for (size_t I = 0; I < Queries.size(); ++I) {
      const MayAliasQuery &Q = Queries[I];
      AliasAnswer A = (Q.Loc == ir::InvalidLoc)
                          ? S->mayAlias(Q.A, Q.B)
                          : S->mayAliasAt(Q.A, Q.B, Q.Loc);
      Results[I] = A.MayAlias ? 1 : 0;
    }
    return Results;
  });
}

//===----------------------------------------------------------------------===//
// AliasService
//===----------------------------------------------------------------------===//

AliasService::AliasService(core::BootstrapOptions BOpts, QueryOptions QOptsIn)
    : Inc(std::move(BOpts)), QOpts(std::move(QOptsIn)) {
  // Keyed adoption and flag semantics require serving to run the exact
  // engine configuration the cascade ran.
  QOpts.EngineOpts = Inc.options().EngineOpts;
  QOpts.AndersenOpts = Inc.options().AndersenOpts;
}

core::UpdateReport AliasService::update(std::unique_ptr<ir::Program> NewProg) {
  core::UpdateReport Report;
  const core::BootstrapResult &R = Inc.update(std::move(NewProg), &Report);
  Engine.publish(QuerySnapshot::build(Inc.programPtr(), Inc.lastCover(),
                                      &R.Clusters, QOpts,
                                      Inc.options().SummaryCache));
  return Report;
}
