//===- perfbench/harness/QueryWarm.cpp - Warm read-path workload ----------===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `query_warm`: one op is one mayAlias or pointsToAt through
/// serving::TenantRegistry. Four closed-loop client threads query one
/// published snapshot of autofs@0.25. Set-up compiles the program,
/// publishes it, and runs a warm-up pass that touches every cluster,
/// so the timed phase exercises only the read path: the cover index,
/// the resident-entry locks, the per-answer counters and the memo walks.
///
/// The seeded query mix has three parts: 25% random pointer pairs
/// (mostly the index rung), 55% same-cluster pairs drawn Zipf-skewed
/// over clusters in cover order (the FSCS rung, or Andersen for flagged
/// clusters), and 20% pointsToAt. With fewer index-rung queries the
/// latency median lies inside the FSCS rung's range instead of on the
/// step between the sub-microsecond index answers and the rest, where
/// it jumped by a tenth between runs.
///
/// The traced pass sends the first queries of every client straight to
/// the pinned QuerySnapshot, one span per query named by the rung that
/// answered it.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "serving/TenantRegistry.h"
#include "workload/BenchmarkSuite.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <thread>

namespace bsaa {
namespace perfbench {
namespace {

constexpr double ProgramScale = 0.25;
constexpr unsigned Clients = 4;
constexpr unsigned SetupReps = 3;
/// Nominal aggregate query rate of the four clients on a 4-vCPU host;
/// sizes the fixed per-run op count.
constexpr double NominalQps = 250000;
/// Queries per client in the traced pass (one span each).
constexpr uint64_t TracedQueriesPerClient = 100000;

enum class Kind : uint8_t { RandomPair, ClusterPair, PointsTo };

struct Query {
  ir::VarId A = 0, B = 0;
  ir::LocId Loc = ir::InvalidLoc;
  Kind K = Kind::RandomPair;
};

struct Served {
  std::unique_ptr<serving::TenantRegistry> Reg;
  serving::TenantId Tenant = 0;
};

Served publishAndWarm(const std::string &Src) {
  serving::ServingOptions SO;
  SO.BOpts.Threads = 4;
  SO.BOpts.EngineOpts.StepBudget = 50000;
  SO.QOpts.MaxMaterializedClusters = size_t(1) << 20;
  SO.DrainThreads = 1;
  Served S;
  S.Reg = std::make_unique<serving::TenantRegistry>(SO);
  S.Tenant = S.Reg->addTenant("query_warm");
  S.Reg->submitEdit(S.Tenant, compileSource(Src));
  S.Reg->waitIdle();
  std::shared_ptr<const query::QuerySnapshot> Snap =
      S.Reg->snapshot(S.Tenant);
  if (!Snap)
    throw std::runtime_error("query_warm: initial publish failed");
  // Warm-up: touch every cluster once (a member pair, or the single
  // member's points-to set), which materializes every FSCS-served
  // cluster and solves the Andersen fallback.
  const ir::Program &P = Snap->program();
  for (const core::Cluster &C : Snap->cover()) {
    std::vector<ir::VarId> Ptrs;
    for (ir::VarId V : C.Members)
      if (P.var(V).isPointer())
        Ptrs.push_back(V);
    if (Ptrs.size() >= 2)
      S.Reg->mayAlias(S.Tenant, Ptrs[0], Ptrs[1]);
    else if (!Ptrs.empty())
      S.Reg->pointsToAt(S.Tenant, Ptrs[0],
                        query::canonicalAliasLoc(P, Ptrs[0], Ptrs[0]));
  }
  return S;
}

/// The seeded query stream of client \p Client.
std::vector<Query> queryStream(const query::QuerySnapshot &Snap,
                               uint64_t Seed, unsigned Client, uint64_t N) {
  const ir::Program &P = Snap.program();
  std::vector<ir::VarId> Ptrs = pointerVars(P);
  std::vector<std::vector<ir::VarId>> Multi;
  for (const core::Cluster &C : Snap.cover()) {
    std::vector<ir::VarId> M;
    for (ir::VarId V : C.Members)
      if (P.var(V).isPointer())
        M.push_back(V);
    if (M.size() >= 2)
      Multi.push_back(std::move(M));
  }
  // Zipf(1) over clusters in cover order. The ranking is fixed so the
  // seed moves which pairs are asked, not which cluster is hottest: the
  // hottest cluster's size would otherwise dominate the seed-to-seed
  // spread of every metric.
  std::vector<double> Cdf(Multi.size());
  double Sum = 0;
  for (size_t I = 0; I < Multi.size(); ++I)
    Cdf[I] = Sum += 1.0 / double(I + 1);

  support::SplitMix64 R(deriveSeed(Seed, 100 + Client));
  auto Unit = [&R] { return double(R.next() >> 11) * 0x1.0p-53; };
  std::vector<Query> Qs(N);
  for (Query &Q : Qs) {
    double U = Unit();
    if (U < 0.25 || Multi.empty()) {
      Q.K = Kind::RandomPair;
      Q.A = Ptrs[R.next() % Ptrs.size()];
      Q.B = Ptrs[R.next() % Ptrs.size()];
    } else if (U < 0.8) {
      Q.K = Kind::ClusterPair;
      size_t C = std::lower_bound(Cdf.begin(), Cdf.end(), Unit() * Sum) -
                 Cdf.begin();
      const std::vector<ir::VarId> &M = Multi[std::min(C, Multi.size() - 1)];
      Q.A = M[R.next() % M.size()];
      Q.B = M[R.next() % M.size()];
    } else {
      Q.K = Kind::PointsTo;
      Q.A = Ptrs[R.next() % Ptrs.size()];
      Q.Loc = query::canonicalAliasLoc(P, Q.A, Q.A);
    }
  }
  return Qs;
}

void addSnapshotDelta(RunResult &R, const query::SnapshotStats &A,
                      const query::SnapshotStats &B) {
  R.Counts["query.index_answers"] += B.IndexAnswers - A.IndexAnswers;
  R.Counts["query.fscs_answers"] += B.FscsAnswers - A.FscsAnswers;
  R.Counts["query.andersen_answers"] += B.AndersenAnswers - A.AndersenAnswers;
  R.Counts["query.steensgaard_answers"] +=
      B.SteensgaardAnswers - A.SteensgaardAnswers;
  R.Counts["query.materializations"] +=
      B.Materializations - A.Materializations;
  R.Counts["query.cache_adoptions"] += B.CacheAdoptions - A.CacheAdoptions;
  R.Counts["query.evictions"] += B.Evictions - A.Evictions;
}

} // namespace

RunResult runQueryWarm(const RunConfig &Cfg, Tracer &T) {
  RunResult R;
  R.Clients = Clients;
  R.Threads = Clients;
  std::string Src =
      workload::generateProgram(workload::suiteEntry("autofs", ProgramScale)
                                    .Config);

  Served S = timedSetups(R, Cfg.Trace ? 1 : SetupReps,
                         [&] { return publishAndWarm(Src); });
  std::shared_ptr<const query::QuerySnapshot> Snap = S.Reg->snapshot(S.Tenant);
  for (const core::ClusterRunResult &C :
       S.Reg->service(S.Tenant).driver().lastResult().Clusters) {
    ++R.ClustersAnalyzed;
    if (!C.BudgetHit && !C.Approximated)
      ++R.ClustersComplete;
  }

  uint64_t PerClient = scaledCount(NominalQps / Clients, Cfg.Seconds, 1000);
  if (Cfg.Trace)
    PerClient = std::min(PerClient, TracedQueriesPerClient);
  std::vector<std::vector<Query>> Streams;
  for (unsigned C = 0; C < Clients; ++C)
    Streams.push_back(queryStream(*Snap, Cfg.Seed, C, PerClient));

  // Runs every client over its stream; \p Traced sends the queries to
  // the snapshot with one span each, otherwise through the registry.
  std::vector<std::vector<uint64_t>> Lat(Clients);
  std::vector<std::vector<uint8_t>> Verdicts(Clients);
  QuerySpanNames Names(T);
  auto RunClients = [&](bool Traced) {
    std::atomic<unsigned> Ready{0};
    std::atomic<bool> Go{false};
    std::vector<std::exception_ptr> Errors(Clients);
    std::vector<std::thread> Ths;
    for (unsigned C = 0; C < Clients; ++C)
      Ths.emplace_back([&, C] {
        // A client's exception is rethrown on the caller's thread.
        try {
          const std::vector<Query> &Qs = Streams[C];
          std::vector<uint64_t> &L = Lat[C];
          std::vector<uint8_t> &V = Verdicts[C];
          L.assign(Qs.size(), 0);
          V.assign(Qs.size(), 0);
          std::vector<SpanRecord> Spans;
          if (Traced)
            Spans.reserve(Qs.size());
          Ready.fetch_add(1);
          while (!Go.load(std::memory_order_acquire))
            std::this_thread::yield();
          for (size_t I = 0; I < Qs.size(); ++I) {
            const Query &Q = Qs[I];
            uint64_t T0 = nowNs();
            query::AnswerSource Src;
            uint8_t Verdict;
            if (Q.K == Kind::PointsTo) {
              query::PointsToAnswer A =
                  Traced ? Snap->pointsToAt(Q.A, Q.Loc)
                         : S.Reg->pointsToAt(S.Tenant, Q.A, Q.Loc);
              Src = A.Source;
              Verdict = static_cast<uint8_t>(
                  std::min<size_t>(A.Objects.size(), 255));
            } else {
              query::AliasAnswer A =
                  Traced ? Snap->mayAlias(Q.A, Q.B)
                         : S.Reg->mayAlias(S.Tenant, Q.A, Q.B);
              Src = A.Source;
              Verdict = A.MayAlias ? 1 : 0;
            }
            uint64_t T1 = nowNs();
            L[I] = T1 - T0;
            V[I] = Verdict;
            if (Traced) {
              SpanRecord SR;
              SR.Start = T0;
              SR.End = T1;
              SR.Id = T.newId();
              SR.Op = static_cast<uint32_t>(C * Qs.size() + I + 1);
              SR.Name = Names.rung(Src);
              Spans.push_back(SR);
            }
          }
          if (Traced)
            T.recordAll(Spans);
        } catch (...) {
          Errors[C] = std::current_exception();
          Ready.fetch_add(1);
        }
      });
    while (Ready.load() < Clients)
      std::this_thread::yield();
    uint64_t W0 = nowNs();
    Go.store(true, std::memory_order_release);
    for (std::thread &Th : Ths)
      Th.join();
    double Wall = double(nowNs() - W0) * 1e-9;
    for (const std::exception_ptr &E : Errors)
      if (E)
        std::rethrow_exception(E);
    return Wall;
  };

  query::SnapshotStats Before = Snap->stats();
  double Cpu0 = processCpuSeconds();
  double Wall = RunClients(false);
  double Cpu = processCpuSeconds() - Cpu0;
  addSnapshotDelta(R, Before, Snap->stats());
  if (Cfg.Trace) {
    R.UntracedPassSeconds = Wall;
    // Counts describe the traced pass (same queries, same answers).
    R.Counts.clear();
    Before = Snap->stats();
    Cpu0 = processCpuSeconds();
    Wall = RunClients(true);
    Cpu = processCpuSeconds() - Cpu0;
    addSnapshotDelta(R, Before, Snap->stats());
    R.TracedPassSeconds = Wall;
    R.TracedOps = PerClient * Clients;
  }
  R.TimedWallSeconds = Wall;
  R.TimedCpuSeconds = Cpu;

  // Oracles, outside the timed phase: every may-alias "yes" lies within
  // one Steensgaard partition, and a fixed sample of answers replays
  // identically single-threaded.
  const analysis::SteensgaardAnalysis &Steens = Snap->steensgaard();
  uint64_t Yes = 0;
  for (unsigned C = 0; C < Clients; ++C) {
    const std::vector<Query> &Qs = Streams[C];
    for (size_t I = 0; I < Qs.size(); ++I) {
      const Query &Q = Qs[I];
      R.OpNs.push_back(Lat[C][I]);
      bool Bad = false;
      if (Q.K != Kind::PointsTo && Verdicts[C][I]) {
        ++Yes;
        Bad = !Steens.samePartition(Q.A, Q.B);
      }
      if (!Bad && I % 64 == 0) {
        uint8_t Again =
            Q.K == Kind::PointsTo
                ? uint8_t(std::min<size_t>(
                      Snap->pointsToAt(Q.A, Q.Loc).Objects.size(), 255))
                : uint8_t(Snap->mayAlias(Q.A, Q.B).MayAlias ? 1 : 0);
        Bad = Again != Verdicts[C][I];
      }
      if (Bad)
        R.fail("query_warm: client " + std::to_string(C) + " query " +
               std::to_string(I) + " failed its oracle");
    }
  }
  R.Counts["query.yes_answers"] = Yes;
  return R;
}

} // namespace perfbench
} // namespace bsaa
