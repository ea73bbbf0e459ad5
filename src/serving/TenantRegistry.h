//===- serving/TenantRegistry.h - Multi-tenant alias serving ----*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-program server core: a TenantRegistry hosts N independent
/// programs (tenants), each wrapped in its own query::AliasService
/// (IncrementalDriver + QueryEngine, optionally a per-tenant
/// racecheck::RaceCheckEngine that the drain re-checks after each
/// publish), addressed by a TenantId.
///
/// Edit ingestion is asynchronous and isolated per tenant:
///
///  * each tenant owns a *bounded* edit queue of pending program
///    versions. submitEdit() never blocks the caller: a full queue
///    rejects with SubmitStatus::RejectedQueueFull (retryable
///    backpressure), and a submission touching the same function as
///    the queue's tail *coalesces* -- the tail's superseded version is
///    replaced in place and never analyzed. Coalescing is sound
///    because every queue entry is a complete program version and the
///    IncrementalDriver diffs fingerprints against the *last analyzed*
///    version: skipping an intermediate version still invalidates
///    everything that differs between the last analyzed and the
///    newest, so no invalidation is ever skipped (the coalescing
///    property test pins this);
///  * queues drain on a shared ThreadPool, at most one drain job per
///    tenant at a time. Re-analysis of tenant A therefore never blocks
///    queries on any tenant (queries read atomically swapped
///    snapshots, never the pool), and never blocks *edits* on tenant B
///    beyond pool capacity. Drain jobs are fire-and-forget: nothing in
///    the serving path calls ThreadPool::waitAll() (whose global
///    quiescence semantics the pool documents); registry-level
///    quiescence is tracked by its own counter + condition variable;
///  * every tenant's cascade runs with its own Statistics registry,
///    SummaryCache, RefinementCache and SliceCache, so concurrent
///    drains of different tenants are fully re-entrant.
///
/// Memory is governed on two levels: per tenant, the snapshot's CLOCK
/// cap on materialized cluster analyses (QueryOptions.
/// MaxMaterializedClusters); globally, a cross-tenant accountant that
/// sums resident materialized clusters and trims the least-recently-
/// queried tenants back under ServingOptions::GlobalMaxResidentClusters.
/// Eviction only ever discards *materialized* state -- the next query
/// re-materializes from the same content-addressed inputs -- so the
/// accountant can never change an answer, only its latency.
///
/// Per-tenant serving stats (p50/p95/p99 query and publish latency from
/// support/LatencyHistogram.h, edits accepted/coalesced/rejected/
/// applied/failed, publishes, snapshot counters) export through
/// toStatsJson().
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_SERVING_TENANTREGISTRY_H
#define BSAA_SERVING_TENANTREGISTRY_H

#include "query/QueryEngine.h"
#include "racecheck/RaceCheckEngine.h"
#include "support/LatencyHistogram.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace bsaa {
namespace serving {

using TenantId = uint32_t;
constexpr TenantId InvalidTenant = UINT32_MAX;

/// Outcome of one submitEdit() call.
enum class SubmitStatus : uint8_t {
  Accepted,          ///< Queued; will be analyzed and published.
  Coalesced,         ///< Replaced the queued tail version touching the
                     ///< same function (the superseded version is never
                     ///< analyzed).
  RejectedQueueFull, ///< Backpressure: queue at capacity. Retryable --
                     ///< the caller resubmits after a drain makes room.
  UnknownTenant,     ///< No such tenant id.
  ShuttingDown,      ///< Registry is shutting down; nothing enqueued.
};

const char *submitStatusName(SubmitStatus S);

/// Registry-wide configuration. BOpts/QOpts are *templates*: every
/// tenant gets fresh private caches and a private Statistics registry
/// stamped into its copy, so tenants never share mutable analysis
/// state.
struct ServingOptions {
  core::BootstrapOptions BOpts;
  query::QueryOptions QOpts;

  /// Workers of the shared drain pool (0 = hardware concurrency).
  unsigned DrainThreads = 2;

  /// Per-tenant bound on queued (not yet analyzed) program versions.
  /// Submissions beyond it reject with RejectedQueueFull.
  size_t EditQueueCapacity = 8;

  /// Cross-tenant cap on resident materialized cluster analyses
  /// (0 = unlimited). Enforced by trimming the least-recently-queried
  /// tenants (see QuerySnapshot::trimResident).
  size_t GlobalMaxResidentClusters = 0;

  /// Give each tenant a racecheck::RaceCheckEngine that re-checks after
  /// every publish (the RaceCheckService pattern, lifted per tenant).
  bool EnableRaceCheck = false;

  /// Schedule a drain job automatically on submit. False = manual mode:
  /// queues grow until drainNow() runs them on the caller's thread
  /// (deterministic tests).
  bool AutoDrain = true;
};

/// One tenant's serving accounting at a point in time.
struct TenantStats {
  std::string Name;
  bool Ready = false; ///< Has a published snapshot.

  uint64_t EditsAccepted = 0;
  uint64_t EditsCoalesced = 0;
  uint64_t EditsRejected = 0;
  uint64_t EditsApplied = 0; ///< Versions analyzed and published.
  /// Versions whose analysis threw; each is dropped and the tenant
  /// keeps serving its last good snapshot.
  uint64_t EditsFailed = 0;
  uint64_t Publishes = 0;    ///< == EditsApplied (every apply publishes).
  uint64_t QueueDepth = 0;

  uint64_t Queries = 0;
  /// Latency quantiles are nullopt until the corresponding histogram
  /// has a sample -- "no data" must stay distinguishable from "0 ms"
  /// or an SLO gate passes vacuously on an idle tenant (toStatsJson
  /// renders absent quantiles as JSON null).
  std::optional<double> QueryP50Ms, QueryP95Ms, QueryP99Ms;
  std::optional<double> PublishP50Ms, PublishP99Ms;

  uint64_t RaceWarnings = 0; ///< 0 unless EnableRaceCheck.

  /// Current snapshot's counters (all zero before the first publish).
  query::SnapshotStats Snapshot;
};

/// Multi-tenant serving front end. All public methods are thread-safe;
/// queries never block on edits or on other tenants.
class TenantRegistry {
public:
  explicit TenantRegistry(ServingOptions Opts);

  /// Stops intake, drains every queue, and joins the pool. Queued
  /// edits accepted before destruction are still analyzed.
  ~TenantRegistry();

  TenantRegistry(const TenantRegistry &) = delete;
  TenantRegistry &operator=(const TenantRegistry &) = delete;

  /// Registers a new tenant (empty until its first edit publishes).
  TenantId addTenant(std::string Name);

  size_t numTenants() const;

  /// Enqueues \p NewProg as tenant \p T's next version. Never blocks:
  /// see SubmitStatus for the admission outcomes. \p TouchedFunction
  /// is the coalescing hint (workload::editedFunctionName); empty
  /// disables coalescing for this submission. \p Tag is an opaque
  /// caller label recorded in appliedTags() when this version is
  /// analyzed -- replay oracles use it to reconstruct the exact
  /// sequence of versions a tenant served.
  SubmitStatus submitEdit(TenantId T, std::unique_ptr<ir::Program> NewProg,
                          const std::string &TouchedFunction = "",
                          uint64_t Tag = 0);

  /// Blocks until no drain is running and every queue is empty. With
  /// AutoDrain off, queues only empty through drainNow(), so run that
  /// first. Must not be called from inside a drain (pool worker).
  void waitIdle();

  /// Runs tenant \p T's drain loop synchronously on the calling
  /// thread (waits first for any scheduled drain of T to finish).
  void drainNow(TenantId T);

  /// True once tenant \p T has a published snapshot.
  bool ready(TenantId T) const;

  /// The tenant's current snapshot (null before the first publish).
  /// Holding it pins that version for consistent multi-query reads.
  std::shared_ptr<const query::QuerySnapshot> snapshot(TenantId T) const;

  //===--------------------------------------------------------------===//
  // Queries (latency-accounted; require ready(T))
  //===--------------------------------------------------------------===//

  query::AliasAnswer mayAlias(TenantId T, ir::VarId A, ir::VarId B);
  query::PointsToAnswer pointsToAt(TenantId T, ir::VarId V, ir::LocId Loc);

  /// Evaluates the batch against one pinned snapshot; verdicts
  /// index-aligned (1 = may alias). Each query's latency is recorded
  /// individually.
  std::vector<uint8_t>
  evalMayAlias(TenantId T, const std::vector<query::MayAliasQuery> &Queries);

  //===--------------------------------------------------------------===//
  // Introspection
  //===--------------------------------------------------------------===//

  /// Tags of the versions actually analyzed, in analysis order
  /// (coalesced-away versions are absent by design).
  std::vector<uint64_t> appliedTags(TenantId T) const;

  /// Current race verdicts (null unless EnableRaceCheck and published).
  std::shared_ptr<const racecheck::RaceReport> raceReport(TenantId T) const;

  TenantStats stats(TenantId T) const;

  /// All tenants' stats as one JSON document, plus the shared
  /// CacheStore's counters ("store", null without one).
  std::string toStatsJson() const;

  /// Test access to the underlying per-tenant service.
  query::AliasService &service(TenantId T);

  const ServingOptions &options() const { return Opts; }

private:
  struct EditTask {
    std::unique_ptr<ir::Program> Prog;
    std::string Touched; ///< Coalescing hint ("" = never coalesce).
    uint64_t Tag = 0;
  };

  struct Tenant {
    std::string Name;
    std::unique_ptr<query::AliasService> Service;
    std::unique_ptr<racecheck::RaceCheckEngine> RaceCheck;

    /// Pending versions, oldest first. Guarded by QueueMutex, along
    /// with DrainScheduled.
    mutable std::mutex QueueMutex;
    std::condition_variable DrainDone; ///< DrainScheduled -> false.
    std::deque<EditTask> Queue;
    /// True while a drain job is scheduled or running; at most one per
    /// tenant, so per-tenant updates are serialized by construction.
    bool DrainScheduled = false;

    std::atomic<uint64_t> Accepted{0};
    std::atomic<uint64_t> CoalescedCount{0};
    std::atomic<uint64_t> Rejected{0};
    std::atomic<uint64_t> Applied{0};
    std::atomic<uint64_t> Failed{0};
    /// Global tick of this tenant's most recent query; the cross-tenant
    /// accountant evicts the stalest tenants first. Only maintained
    /// when GlobalMaxResidentClusters != 0.
    std::atomic<uint64_t> LastQueryTick{0};

    /// One sample per query; its total is the tenant's query count.
    support::LatencyHistogram QueryLat;
    support::LatencyHistogram PublishLat;

    mutable std::mutex AppliedMutex;
    std::vector<uint64_t> AppliedTags;
  };

  Tenant &tenant(TenantId T);
  const Tenant &tenant(TenantId T) const;

  /// The drain loop: pops and analyzes queued versions until the queue
  /// is empty, then clears DrainScheduled. Runs on a pool worker
  /// (AutoDrain) or the drainNow() caller.
  void drainLoop(Tenant &Ten);

  /// Schedules a drain job for \p Ten if none is scheduled. Callers
  /// hold Ten.QueueMutex.
  void scheduleDrainLocked(Tenant &Ten);

  /// Trims least-recently-queried tenants until total resident
  /// materialized clusters fit GlobalMaxResidentClusters.
  void enforceGlobalBudget();

  /// Query-path bookkeeping of the cross-tenant accountant (a no-op
  /// without a global budget): \p N queries just ran on \p Ten; stamp
  /// its recency and enforce whenever the running count crosses a
  /// 256-query boundary.
  void noteQueries(Tenant &Ten, uint64_t N);

  /// Runs \p F on tenant \p T's pinned current snapshot and records
  /// the query's latency; throws before the first publish.
  template <class Fn> auto timedQuery(TenantId T, Fn &&F);

  ServingOptions Opts;
  /// Runs the drain jobs and nothing else: queries, batches included,
  /// run inline on the caller's thread. Declared after Opts, which
  /// sizes it.
  ThreadPool Pool;

  /// Serializes addTenant(); guards Tenants and IndexGenerations.
  mutable std::mutex TenantsMutex;
  std::vector<std::unique_ptr<Tenant>> Tenants;
  /// Lock-free lookup for tenant(): the first NumTenants entries of
  /// *Index are valid. addTenant() grows the array by doubling and
  /// keeps every generation alive, since readers may still hold an
  /// older one.
  std::vector<std::unique_ptr<Tenant *[]>> IndexGenerations;
  size_t IndexCapacity = 0; ///< Guarded by TenantsMutex.
  std::atomic<Tenant **> Index{nullptr};
  std::atomic<size_t> NumTenants{0};

  std::atomic<bool> ShuttingDown{false};

  /// Drains scheduled or running, registry-wide; waitIdle() and the
  /// destructor wait on it instead of ThreadPool::waitAll() (see the
  /// pool's multi-waiter caveats).
  std::mutex IdleMutex;
  std::condition_variable IdleCv;
  uint64_t ActiveDrains = 0; ///< Guarded by IdleMutex.

  std::atomic<uint64_t> QueryTick{0};
  std::atomic<uint64_t> BudgetProbe{0};
};

} // namespace serving
} // namespace bsaa

#endif // BSAA_SERVING_TENANTREGISTRY_H
