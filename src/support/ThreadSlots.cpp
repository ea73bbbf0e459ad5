//===- support/ThreadSlots.cpp - Dense per-thread slots -------------------===//

#include "support/ThreadSlots.h"

#include <mutex>
#include <vector>

using namespace bsaa;
using namespace bsaa::support;

namespace {

struct SlotRegistry {
  std::mutex M;
  std::vector<uint8_t> InUse; ///< Guarded by M.
  std::atomic<unsigned> Bound{0};
};

/// Leaked on purpose: threads may exit (and release their slot) after
/// static destruction has begun.
SlotRegistry &registry() {
  static SlotRegistry *R = new SlotRegistry;
  return *R;
}

/// Returns the thread's slot to the registry when the thread exits.
struct SlotReleaser {
  unsigned Slot;
  ~SlotReleaser() {
    SlotRegistry &R = registry();
    std::lock_guard<std::mutex> Lock(R.M);
    R.InUse[Slot] = 0;
    detail::CachedSlot = detail::NoSlot;
  }
};

} // namespace

unsigned detail::acquireThreadSlot() {
  SlotRegistry &R = registry();
  unsigned Slot;
  {
    std::lock_guard<std::mutex> Lock(R.M);
    Slot = 0;
    while (Slot < R.InUse.size() && R.InUse[Slot])
      ++Slot;
    if (Slot == R.InUse.size())
      R.InUse.push_back(0);
    R.InUse[Slot] = 1;
    if (Slot + 1 > R.Bound.load(std::memory_order_relaxed))
      R.Bound.store(Slot + 1, std::memory_order_release);
  }
  thread_local SlotReleaser Releaser{Slot};
  CachedSlot = Slot;
  return Slot;
}

unsigned support::threadSlotBound() {
  return registry().Bound.load(std::memory_order_acquire);
}
