//===- serving/TenantRegistry.cpp - Multi-tenant alias serving ------------===//

#include "serving/TenantRegistry.h"

#include "support/CacheStore.h"
#include "support/Json.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

using namespace bsaa;
using namespace bsaa::serving;

namespace {

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

const char *bsaa::serving::submitStatusName(SubmitStatus S) {
  switch (S) {
  case SubmitStatus::Accepted:
    return "accepted";
  case SubmitStatus::Coalesced:
    return "coalesced";
  case SubmitStatus::RejectedQueueFull:
    return "rejected-queue-full";
  case SubmitStatus::UnknownTenant:
    return "unknown-tenant";
  case SubmitStatus::ShuttingDown:
    return "shutting-down";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Construction / teardown
//===----------------------------------------------------------------------===//

TenantRegistry::TenantRegistry(ServingOptions OptsIn)
    : Opts(std::move(OptsIn)), Pool(Opts.DrainThreads) {
  // Warm tenant onboarding: resolve the persistent store once; every
  // tenant added later gets fresh in-memory caches (isolation of
  // counters and accounting) that all attach to this one store, so a
  // new tenant whose program matches prior work -- a restart, a fleet
  // of workers over one codebase -- revives whole cluster fixpoints
  // from disk instead of re-solving them. Sharing the store across
  // programs is sound: its records are content-addressed by
  // dependency-scope digests, and equal digests mean equal analysis
  // inputs (DESIGN.md section 5b). Tenants stay isolated because each
  // one owns its in-memory caches and its stats registry.
  if (!Opts.BOpts.Store && !Opts.BOpts.StorePath.empty())
    Opts.BOpts.Store = support::CacheStore::open(Opts.BOpts.StorePath);
}

TenantRegistry::~TenantRegistry() {
  // Stop intake first so queues can only shrink from here on, then
  // finish every version accepted before shutdown: drainNow() waits for
  // any in-flight pool drain of the tenant and runs the remainder (the
  // manual-mode leftovers) on this thread.
  ShuttingDown.store(true, std::memory_order_release);
  size_t N = numTenants();
  for (size_t I = 0; I < N; ++I)
    drainNow(static_cast<TenantId>(I));
  waitIdle();
  Pool.shutdown();
  // drainLoop() contains every job in a catch-all, so no job error can
  // be pending; claim defensively anyway (debug builds assert claimed).
  (void)Pool.takeError();
}

TenantId TenantRegistry::addTenant(std::string Name) {
  auto Ten = std::make_unique<Tenant>();
  Ten->Name = std::move(Name);

  // Fresh per-tenant caches and a per-tenant Statistics registry: two
  // tenants' re-analyses must be fully re-entrant, and every tenant's
  // incremental results must be byte-identical to a single-tenant
  // replay -- shared caches would leak one tenant's entries into
  // another's accounting.
  core::BootstrapOptions B = Opts.BOpts;
  B.SummaryCache = std::make_shared<fscs::SummaryCache>();
  B.RelevantSliceCache = std::make_shared<core::SliceCache>();
  B.AndersenRefinementCache = std::make_shared<core::RefinementCache>();
  B.StatsRegistry = std::make_shared<Statistics>();
  Ten->Service = std::make_unique<query::AliasService>(B, Opts.QOpts);

  if (Opts.EnableRaceCheck)
    Ten->RaceCheck = std::make_unique<racecheck::RaceCheckEngine>();

  std::lock_guard<std::mutex> Lock(TenantsMutex);
  size_t N = Tenants.size();
  Tenants.push_back(std::move(Ten));
  if (N == IndexCapacity) {
    IndexCapacity = std::max<size_t>(8, 2 * IndexCapacity);
    auto Grown = std::make_unique<Tenant *[]>(IndexCapacity);
    for (size_t I = 0; I < N; ++I)
      Grown[I] = Tenants[I].get();
    Index.store(Grown.get(), std::memory_order_release);
    IndexGenerations.push_back(std::move(Grown));
  }
  Index.load(std::memory_order_relaxed)[N] = Tenants[N].get();
  // Publishes the slot just written (and the array, if it grew).
  NumTenants.store(N + 1, std::memory_order_release);
  return static_cast<TenantId>(N);
}

size_t TenantRegistry::numTenants() const {
  return NumTenants.load(std::memory_order_acquire);
}

TenantRegistry::Tenant &TenantRegistry::tenant(TenantId T) {
  return const_cast<Tenant &>(std::as_const(*this).tenant(T));
}

const TenantRegistry::Tenant &TenantRegistry::tenant(TenantId T) const {
  if (T >= NumTenants.load(std::memory_order_acquire))
    throw std::out_of_range("TenantRegistry: no such tenant id");
  return *Index.load(std::memory_order_acquire)[T];
}

//===----------------------------------------------------------------------===//
// Edit ingestion
//===----------------------------------------------------------------------===//

SubmitStatus TenantRegistry::submitEdit(TenantId T,
                                        std::unique_ptr<ir::Program> NewProg,
                                        const std::string &TouchedFunction,
                                        uint64_t Tag) {
  if (T >= numTenants())
    return SubmitStatus::UnknownTenant;
  Tenant *Ten = &tenant(T);
  if (ShuttingDown.load(std::memory_order_acquire))
    return SubmitStatus::ShuttingDown;

  std::lock_guard<std::mutex> Lock(Ten->QueueMutex);

  // Coalesce with the queue *tail* only: the tail is the newest not-yet-
  // analyzed version, so replacing it in place keeps version order
  // intact while the superseded intermediate is never analyzed.
  // Fingerprint diffing runs against the last *analyzed* version, so
  // the skipped version's changes are still fully invalidated.
  if (!TouchedFunction.empty() && !Ten->Queue.empty() &&
      Ten->Queue.back().Touched == TouchedFunction) {
    EditTask &Tail = Ten->Queue.back();
    Tail.Prog = std::move(NewProg);
    Tail.Tag = Tag;
    Ten->CoalescedCount.fetch_add(1, std::memory_order_relaxed);
    if (Opts.AutoDrain)
      scheduleDrainLocked(*Ten);
    return SubmitStatus::Coalesced;
  }

  if (Ten->Queue.size() >= Opts.EditQueueCapacity) {
    Ten->Rejected.fetch_add(1, std::memory_order_relaxed);
    return SubmitStatus::RejectedQueueFull;
  }

  EditTask Task;
  Task.Prog = std::move(NewProg);
  Task.Touched = TouchedFunction;
  Task.Tag = Tag;
  Ten->Queue.push_back(std::move(Task));
  Ten->Accepted.fetch_add(1, std::memory_order_relaxed);
  if (Opts.AutoDrain)
    scheduleDrainLocked(*Ten);
  return SubmitStatus::Accepted;
}

void TenantRegistry::scheduleDrainLocked(Tenant &Ten) {
  if (Ten.DrainScheduled)
    return; // The running drain will see the new entry.
  Ten.DrainScheduled = true;
  {
    std::lock_guard<std::mutex> Lock(IdleMutex);
    ++ActiveDrains;
  }
  bool Submitted = Pool.submit([this, &Ten] { drainLoop(Ten); });
  if (!Submitted) {
    // Pool already shutting down (destructor path); the destructor's
    // drainNow() sweep picks the queue up instead.
    Ten.DrainScheduled = false;
    Ten.DrainDone.notify_all();
    std::lock_guard<std::mutex> Lock(IdleMutex);
    --ActiveDrains;
    IdleCv.notify_all();
  }
}

void TenantRegistry::drainLoop(Tenant &Ten) {
  for (;;) {
    EditTask Task;
    {
      std::lock_guard<std::mutex> Lock(Ten.QueueMutex);
      if (Ten.Queue.empty()) {
        Ten.DrainScheduled = false;
        Ten.DrainDone.notify_all();
        break;
      }
      Task = std::move(Ten.Queue.front());
      Ten.Queue.pop_front();
    }
    // Analyze outside the queue mutex: submissions and coalescing stay
    // wait-free while the cascade runs.
    try {
      uint64_t Start = nowNanos();
      core::UpdateReport Report = Ten.Service->update(std::move(Task.Prog));
      // The RaceCheckService pattern lifted per tenant: re-derive race
      // verdicts on the drain thread, right after the publish. Sound to
      // run unsynchronized against other tenants because the engine
      // only touches this tenant's snapshot, and serialized within the
      // tenant because at most one drain runs per tenant at a time.
      if (Ten.RaceCheck)
        Ten.RaceCheck->check(
            Ten.Service->engine().snapshot(), &Report,
            &Ten.Service->driver().functionFingerprints());
      Ten.PublishLat.record(nowNanos() - Start);
      Ten.Applied.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> Lock(Ten.AppliedMutex);
        Ten.AppliedTags.push_back(Task.Tag);
      }
      enforceGlobalBudget();
    } catch (...) {
      // A version that fails to analyze is dropped (and counted); the
      // tenant keeps serving its last good snapshot and the drain
      // keeps going, so one poisoned edit can never wedge the queue
      // (or, via the pool's first-error capture, some unrelated
      // tenant's drain).
      Ten.Failed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::lock_guard<std::mutex> Lock(IdleMutex);
  --ActiveDrains;
  IdleCv.notify_all();
}

void TenantRegistry::drainNow(TenantId T) {
  Tenant &Ten = tenant(T);
  {
    std::unique_lock<std::mutex> Lock(Ten.QueueMutex);
    Ten.DrainDone.wait(Lock, [&Ten] { return !Ten.DrainScheduled; });
    if (Ten.Queue.empty())
      return;
    Ten.DrainScheduled = true;
  }
  {
    std::lock_guard<std::mutex> Lock(IdleMutex);
    ++ActiveDrains;
  }
  drainLoop(Ten); // Clears DrainScheduled and ActiveDrains when done.
}

void TenantRegistry::waitIdle() {
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(IdleMutex);
      IdleCv.wait(Lock, [this] { return ActiveDrains == 0; });
    }
    // Re-check the queues outside IdleMutex (scheduleDrainLocked takes
    // QueueMutex then IdleMutex; taking them in the opposite order here
    // would invert the lock order). A non-empty queue with no drain
    // scheduled only happens in manual mode or in the instant before a
    // submitter schedules -- loop until both conditions hold together.
    bool Quiescent = true;
    size_t N = numTenants();
    for (size_t I = 0; I < N && Quiescent; ++I) {
      Tenant &Ten = tenant(static_cast<TenantId>(I));
      std::lock_guard<std::mutex> Lock(Ten.QueueMutex);
      if (Ten.DrainScheduled || (Opts.AutoDrain && !Ten.Queue.empty()))
        Quiescent = false;
    }
    if (Quiescent)
      return;
    std::this_thread::yield();
  }
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

bool TenantRegistry::ready(TenantId T) const {
  return tenant(T).Service->engine().hasSnapshot();
}

std::shared_ptr<const query::QuerySnapshot>
TenantRegistry::snapshot(TenantId T) const {
  return tenant(T).Service->engine().snapshot();
}

template <class Fn> auto TenantRegistry::timedQuery(TenantId T, Fn &&F) {
  Tenant &Ten = tenant(T);
  auto Ans = Ten.Service->engine().read([&](const query::QuerySnapshot *S) {
    if (!S)
      throw std::logic_error("TenantRegistry: query before first publish");
    uint64_t Start = nowNanos();
    auto A = F(*S);
    Ten.QueryLat.record(nowNanos() - Start);
    return A;
  });
  noteQueries(Ten, 1);
  return Ans;
}

query::AliasAnswer TenantRegistry::mayAlias(TenantId T, ir::VarId A,
                                            ir::VarId B) {
  return timedQuery(T, [&](const query::QuerySnapshot &S) {
    return S.mayAlias(A, B);
  });
}

query::PointsToAnswer TenantRegistry::pointsToAt(TenantId T, ir::VarId V,
                                                 ir::LocId Loc) {
  return timedQuery(T, [&](const query::QuerySnapshot &S) {
    return S.pointsToAt(V, Loc);
  });
}

std::vector<uint8_t>
TenantRegistry::evalMayAlias(TenantId T,
                             const std::vector<query::MayAliasQuery> &Queries) {
  Tenant &Ten = tenant(T);
  std::vector<uint8_t> Results =
      Ten.Service->engine().read([&](const query::QuerySnapshot *S) {
        if (!S)
          throw std::logic_error(
              "TenantRegistry: query before first publish");
        std::vector<uint8_t> Out(Queries.size(), 0);
        for (size_t I = 0; I < Queries.size(); ++I) {
          const query::MayAliasQuery &Q = Queries[I];
          uint64_t Start = nowNanos();
          query::AliasAnswer A = (Q.Loc == ir::InvalidLoc)
                                     ? S->mayAlias(Q.A, Q.B)
                                     : S->mayAliasAt(Q.A, Q.B, Q.Loc);
          Ten.QueryLat.record(nowNanos() - Start);
          Out[I] = A.MayAlias ? 1 : 0;
        }
        return Out;
      });
  noteQueries(Ten, Queries.size());
  return Results;
}

//===----------------------------------------------------------------------===//
// Cross-tenant memory accountant
//===----------------------------------------------------------------------===//

void TenantRegistry::noteQueries(Tenant &Ten, uint64_t N) {
  if (Opts.GlobalMaxResidentClusters == 0)
    return;
  Ten.LastQueryTick.store(QueryTick.fetch_add(1, std::memory_order_relaxed) +
                              1,
                          std::memory_order_relaxed);
  // Count queries, not calls: one big batch must advance the probe as
  // far as many single queries would.
  uint64_t Before = BudgetProbe.fetch_add(N, std::memory_order_relaxed);
  if ((Before >> 8) != ((Before + N) >> 8))
    enforceGlobalBudget();
}

void TenantRegistry::enforceGlobalBudget() {
  if (Opts.GlobalMaxResidentClusters == 0)
    return;

  struct Candidate {
    std::shared_ptr<const query::QuerySnapshot> Snap;
    uint64_t LastTick;
    size_t Resident;
  };
  std::vector<Candidate> Cands;
  size_t Total = 0;
  {
    std::lock_guard<std::mutex> Lock(TenantsMutex);
    Cands.reserve(Tenants.size());
    for (const std::unique_ptr<Tenant> &Ten : Tenants) {
      std::shared_ptr<const query::QuerySnapshot> S =
          Ten->Service->engine().snapshot();
      if (!S)
        continue;
      size_t R = static_cast<size_t>(S->stats().Resident);
      Total += R;
      Cands.push_back(
          {std::move(S), Ten->LastQueryTick.load(std::memory_order_relaxed),
           R});
    }
  }
  if (Total <= Opts.GlobalMaxResidentClusters)
    return;

  // Evict from the least-recently-queried tenants first. Sound: evicted
  // cluster analyses re-materialize from the same content-addressed
  // inputs on the next query, so only latency changes, never answers.
  std::sort(Cands.begin(), Cands.end(),
            [](const Candidate &A, const Candidate &B) {
              return A.LastTick < B.LastTick;
            });
  size_t Overshoot = Total - Opts.GlobalMaxResidentClusters;
  for (const Candidate &C : Cands) {
    if (Overshoot == 0)
      break;
    size_t Target = C.Resident > Overshoot ? C.Resident - Overshoot : 0;
    size_t Evicted = C.Snap->trimResident(Target);
    Overshoot -= std::min(Evicted, Overshoot);
  }
}

//===----------------------------------------------------------------------===//
// Introspection
//===----------------------------------------------------------------------===//

std::vector<uint64_t> TenantRegistry::appliedTags(TenantId T) const {
  const Tenant &Ten = tenant(T);
  std::lock_guard<std::mutex> Lock(Ten.AppliedMutex);
  return Ten.AppliedTags;
}

std::shared_ptr<const racecheck::RaceReport>
TenantRegistry::raceReport(TenantId T) const {
  const Tenant &Ten = tenant(T);
  if (!Ten.RaceCheck)
    return nullptr;
  return Ten.RaceCheck->report();
}

query::AliasService &TenantRegistry::service(TenantId T) {
  return *tenant(T).Service;
}

TenantStats TenantRegistry::stats(TenantId T) const {
  const Tenant &Ten = tenant(T);
  TenantStats St;
  St.Name = Ten.Name;
  St.EditsAccepted = Ten.Accepted.load(std::memory_order_relaxed);
  St.EditsCoalesced = Ten.CoalescedCount.load(std::memory_order_relaxed);
  St.EditsRejected = Ten.Rejected.load(std::memory_order_relaxed);
  St.EditsApplied = Ten.Applied.load(std::memory_order_relaxed);
  St.EditsFailed = Ten.Failed.load(std::memory_order_relaxed);
  St.Publishes = St.EditsApplied;
  {
    std::lock_guard<std::mutex> Lock(Ten.QueueMutex);
    St.QueueDepth = Ten.Queue.size();
  }

  // Quantiles of an empty histogram stay nullopt: an idle tenant has
  // no p99, which must not render as a gate-satisfying 0 ms.
  auto Ms = [](std::optional<double> Secs) -> std::optional<double> {
    if (!Secs)
      return std::nullopt;
    return *Secs * 1e3;
  };
  support::LatencyHistogram::Snapshot Q = Ten.QueryLat.snapshot();
  St.Queries = Q.Total;
  St.QueryP50Ms = Ms(Q.quantileSecondsIfAny(0.50));
  St.QueryP95Ms = Ms(Q.quantileSecondsIfAny(0.95));
  St.QueryP99Ms = Ms(Q.quantileSecondsIfAny(0.99));
  support::LatencyHistogram::Snapshot P = Ten.PublishLat.snapshot();
  St.PublishP50Ms = Ms(P.quantileSecondsIfAny(0.50));
  St.PublishP99Ms = Ms(P.quantileSecondsIfAny(0.99));

  std::shared_ptr<const query::QuerySnapshot> S =
      Ten.Service->engine().snapshot();
  St.Ready = S != nullptr;
  if (S)
    St.Snapshot = S->stats();

  if (Ten.RaceCheck)
    if (std::shared_ptr<const racecheck::RaceReport> R = Ten.RaceCheck->report())
      St.RaceWarnings = R->Warnings.size();
  return St;
}

std::string TenantRegistry::toStatsJson() const {
  support::JsonWriter W;
  W.beginObject().key("serving").beginObject();
  size_t N = numTenants();
  W.field("num_tenants", N)
      .field("edit_queue_capacity", Opts.EditQueueCapacity)
      .field("global_max_resident_clusters", Opts.GlobalMaxResidentClusters);
  // The shared persistent store, cumulative since open(): live bytes
  // over records is the per-record footprint, and put duplicates
  // against gets show records that keep missing.
  W.key("store");
  if (Opts.BOpts.Store) {
    support::CacheStoreCounters SC = Opts.BOpts.Store->counters();
    W.beginObject()
        .field("records", SC.Records)
        .field("live_bytes", SC.LiveBytes)
        .field("gets", SC.Gets)
        .field("hits", SC.GetHits)
        .field("puts", SC.Puts)
        .field("put_duplicates", SC.PutDuplicates)
        .field("corrupt_dropped", SC.CorruptDropped)
        .endObject();
  } else {
    W.null();
  }
  W.key("tenants").beginArray();
  for (size_t I = 0; I < N; ++I) {
    TenantStats St = stats(static_cast<TenantId>(I));
    W.beginObject().field("name", St.Name).field("ready", St.Ready);
    W.key("edits")
        .beginObject()
        .field("accepted", St.EditsAccepted)
        .field("coalesced", St.EditsCoalesced)
        .field("rejected", St.EditsRejected)
        .field("applied", St.EditsApplied)
        .field("failed", St.EditsFailed)
        .field("queue_depth", St.QueueDepth)
        .endObject();
    W.field("queries", St.Queries);
    // Absent quantiles (idle histogram) render as JSON null -- SLO
    // gates must treat null as "no data", never as 0 ms.
    W.key("query_ms")
        .beginObject()
        .field("p50", St.QueryP50Ms)
        .field("p95", St.QueryP95Ms)
        .field("p99", St.QueryP99Ms)
        .endObject();
    W.key("publish_ms")
        .beginObject()
        .field("p50", St.PublishP50Ms)
        .field("p99", St.PublishP99Ms)
        .endObject();
    W.field("race_warnings", St.RaceWarnings);
    const query::SnapshotStats &S = St.Snapshot;
    W.key("snapshot")
        .beginObject()
        .field("index_answers", S.IndexAnswers)
        .field("fscs_answers", S.FscsAnswers)
        .field("walks", S.Walks)
        .field("andersen_answers", S.AndersenAnswers)
        .field("steensgaard_answers", S.SteensgaardAnswers)
        .field("materializations", S.Materializations)
        .field("cache_adoptions", S.CacheAdoptions)
        .field("evictions", S.Evictions)
        .field("resident", S.Resident)
        .endObject();
    W.endObject();
  }
  W.endArray().endObject().endObject();
  return W.str();
}
