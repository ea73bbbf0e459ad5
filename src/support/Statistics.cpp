//===- support/Statistics.cpp - Named counters ----------------------------===//

#include "support/Statistics.h"

#include "support/Json.h"

#include <atomic>
#include <sstream>
#include <unordered_map>

using namespace bsaa;

namespace {

/// Monotonic, never reused: a destroyed registry's id never resolves in
/// any thread's cache again, so stale cache entries are harmless.
std::atomic<uint64_t> NextInstanceId{1};

} // namespace

Statistics::Statistics()
    : InstanceId(NextInstanceId.fetch_add(1, std::memory_order_relaxed)) {}

Statistics::~Statistics() = default;

Statistics &Statistics::global() {
  static Statistics Instance;
  return Instance;
}

Statistics::Shard &Statistics::myShard() {
  // Registry-id -> shard cache for this thread. Shards are owned by the
  // registry (they must survive thread exit to keep their counts), the
  // cache only avoids the registry lock on repeat lookups.
  thread_local std::unordered_map<uint64_t, Shard *> Cache;
  auto It = Cache.find(InstanceId);
  if (It != Cache.end())
    return *It->second;
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  Shards.push_back(std::make_unique<Shard>());
  Shard *S = Shards.back().get();
  Cache.emplace(InstanceId, S);
  return *S;
}

void Statistics::add(const std::string &Name, uint64_t Delta) {
  Shard &S = myShard();
  std::lock_guard<std::mutex> Lock(S.M);
  S.Counters[Name] += Delta;
}

void Statistics::set(const std::string &Name, uint64_t Value) {
  // Lock order everywhere: RegistryMutex, then one shard at a time.
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> ShardLock(S->M);
    S->Counters.erase(Name);
  }
  Base[Name] = Value;
}

uint64_t Statistics::get(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  uint64_t Value = 0;
  auto BaseIt = Base.find(Name);
  if (BaseIt != Base.end())
    Value = BaseIt->second;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> ShardLock(S->M);
    auto It = S->Counters.find(Name);
    if (It != S->Counters.end())
      Value += It->second;
  }
  return Value;
}

void Statistics::clear() {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  Base.clear();
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> ShardLock(S->M);
    S->Counters.clear();
  }
}

std::vector<std::pair<std::string, uint64_t>> Statistics::snapshot() const {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  std::map<std::string, uint64_t> Merged = Base;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> ShardLock(S->M);
    for (const auto &[Name, Value] : S->Counters)
      Merged[Name] += Value;
  }
  return {Merged.begin(), Merged.end()};
}

std::string Statistics::toString() const {
  std::ostringstream OS;
  for (const auto &[Name, Value] : snapshot())
    OS << Name << " = " << Value << "\n";
  return OS.str();
}

std::string Statistics::toJson() const {
  support::JsonWriter W;
  W.beginObject();
  for (const auto &[Name, Value] : snapshot())
    W.field(Name, Value);
  W.endObject();
  return W.str();
}
