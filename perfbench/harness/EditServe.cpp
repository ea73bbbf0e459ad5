//===- perfbench/harness/EditServe.cpp - Edit-and-serve workload ----------===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `edit_serve`: one op is one edit round of a single closed-loop
/// client against one TenantRegistry tenant with race checking on. A
/// round generates and compiles the next version of the racecheck
/// bench's editable program (scale 0.5) along its edit stream (about
/// 70% mutate, 15% stub, 15% append), submits it, waits until it
/// is published, and answers a seeded query burst on the fresh snapshot
/// -- the burst pays the first-touch materializations. The seed draws
/// the bursts. Set-up is the initial cold publish.
///
/// The traced pass replays the same rounds through the calls a publish
/// composes: IncrementalDriver::update -> QuerySnapshot::build ->
/// RaceCheckEngine::check, plus the per-version fingerprints.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "ir/Fingerprint.h"
#include "racecheck/RaceCheckEngine.h"
#include "serving/TenantRegistry.h"
#include "support/Statistics.h"

#include <algorithm>

namespace bsaa {
namespace perfbench {
namespace {

constexpr double ProgramScale = 0.5;
constexpr unsigned SetupReps = 5;
constexpr double NominalRoundsPerSecond = 18;
/// Every CheckEvery-th round (and the last) is compared against a cold,
/// never-incremental service.
constexpr uint64_t CheckEvery = 16;
constexpr unsigned BurstPairs = 24, BurstPointsTo = 8;

core::BootstrapOptions editOptions() {
  core::BootstrapOptions O;
  O.EngineOpts.StepBudget = 50000;
  return O;
}

serving::ServingOptions servingOptions() {
  serving::ServingOptions SO;
  SO.BOpts = editOptions();
  SO.EnableRaceCheck = true;
  SO.QOpts.MaxMaterializedClusters = size_t(1) << 20;
  SO.DrainThreads = 1;
  return SO;
}

struct BurstQuery {
  ir::VarId A = 0, B = 0;
  ir::LocId Loc = ir::InvalidLoc; ///< Valid for pointsToAt queries.
};

/// The seeded burst for round \p Round on \p Snap: pointer pairs
/// sharing a cluster (the FSCS rung and its first touches) and
/// pointsToAt queries.
std::vector<BurstQuery> burstFor(const query::QuerySnapshot &Snap,
                                 uint64_t Seed, uint64_t Round) {
  const ir::Program &P = Snap.program();
  std::vector<ir::VarId> Ptrs = pointerVars(P);
  support::SplitMix64 R(deriveSeed(Seed, 1000 + Round));
  std::vector<std::vector<ir::VarId>> Multi;
  for (const core::Cluster &C : Snap.cover()) {
    std::vector<ir::VarId> M;
    for (ir::VarId V : C.Members)
      if (P.var(V).isPointer())
        M.push_back(V);
    if (M.size() >= 2)
      Multi.push_back(std::move(M));
  }
  std::vector<BurstQuery> Qs;
  for (unsigned I = 0; I < BurstPairs && !Multi.empty(); ++I) {
    const std::vector<ir::VarId> &M = Multi[R.next() % Multi.size()];
    Qs.push_back({M[R.next() % M.size()], M[R.next() % M.size()]});
  }
  for (unsigned I = 0; I < BurstPointsTo && !Ptrs.empty(); ++I) {
    ir::VarId V = Ptrs[R.next() % Ptrs.size()];
    Qs.push_back({V, V, query::canonicalAliasLoc(P, V, V)});
  }
  return Qs;
}

/// One burst answer: may-alias verdict or points-to set size.
struct BurstAnswer {
  uint32_t Value = 0;
  query::AnswerSource Source = query::AnswerSource::Index;
};

template <typename MayFn, typename PtsFn>
std::vector<BurstAnswer> answerBurst(const std::vector<BurstQuery> &Qs,
                                     MayFn May, PtsFn Pts) {
  std::vector<BurstAnswer> Out;
  for (const BurstQuery &Q : Qs) {
    if (Q.Loc != ir::InvalidLoc) {
      query::PointsToAnswer A = Pts(Q);
      Out.push_back({uint32_t(A.Objects.size()), A.Source});
    } else {
      query::AliasAnswer A = May(Q);
      Out.push_back({A.MayAlias ? 1u : 0u, A.Source});
    }
  }
  return Out;
}

/// Oracle shared by both passes: every may-alias "yes" lies within one
/// Steensgaard partition.
void checkPartitions(RunResult &R, const query::QuerySnapshot &Snap,
                     const std::vector<BurstQuery> &Qs,
                     const std::vector<BurstAnswer> &As, uint64_t Round) {
  for (size_t I = 0; I < Qs.size(); ++I)
    if (Qs[I].Loc == ir::InvalidLoc && As[I].Value &&
        !Snap.steensgaard().samePartition(Qs[I].A, Qs[I].B))
      R.fail("edit_serve: round " + std::to_string(Round) +
             " served a cross-partition alias");
}

void countRungs(RunResult &R, const std::vector<BurstAnswer> &As) {
  for (const BurstAnswer &A : As) {
    switch (A.Source) {
    case query::AnswerSource::Index:
      ++R.Counts["query.index_answers"];
      break;
    case query::AnswerSource::Fscs:
    case query::AnswerSource::FscsPartial:
      ++R.Counts["query.fscs_answers"];
      break;
    case query::AnswerSource::Andersen:
      ++R.Counts["query.andersen_answers"];
      break;
    case query::AnswerSource::Steensgaard:
      ++R.Counts["query.steensgaard_answers"];
      break;
    }
  }
}

struct Tenant {
  std::unique_ptr<serving::TenantRegistry> Reg;
  serving::TenantId Id = 0;
};

/// The edit stream and the program version it leads to.
struct Versions {
  workload::GeneratorConfig Cfg = raceConfig(ProgramScale);
  std::vector<workload::ProgramEdit> Edits;
  workload::EditState State = workload::initialEditState(Cfg);
  /// Source of the version after edit \p I (applied in order).
  std::string next(uint64_t I) {
    workload::applyEdit(State, Edits[I]);
    return workload::generateProgram(Cfg, State);
  }
};

} // namespace

RunResult runEditServe(const RunConfig &Cfg, Tracer &T) {
  RunResult R;
  R.Clients = 1;
  R.Threads = 1;
  uint64_t Rounds = scaledCount(NominalRoundsPerSecond, Cfg.Seconds, 20);
  if (Cfg.Trace)
    Rounds = std::max<uint64_t>(20, Rounds / 2);
  workload::GeneratorConfig GenCfg = raceConfig(ProgramScale);
  // The racecheck bench's edit stream (stream seed 7) for every seed: the
  // edits decide most of the work -- a stub re-analyses far more than a
  // mutate or an append, and which function a stub hits moves the
  // summary cache's size -- so a seeded stream would swing every metric
  // with the seed. The seed moves the query bursts.
  std::vector<workload::ProgramEdit> Edits =
      workload::generateEditStream(GenCfg, uint32_t(Rounds), /*StreamSeed=*/7);
  std::string V0 = workload::generateProgram(GenCfg);

  Tenant Ten = timedSetups(R, Cfg.Trace ? 1 : SetupReps, [&] {
    Tenant X;
    X.Reg = std::make_unique<serving::TenantRegistry>(servingOptions());
    X.Id = X.Reg->addTenant("edit_serve");
    X.Reg->submitEdit(X.Id, compileSource(V0));
    X.Reg->waitIdle();
    if (!X.Reg->ready(X.Id))
      throw std::runtime_error("edit_serve: initial publish failed");
    return X;
  });

  // The registry pass: the timed phase of untraced runs, and the
  // overhead baseline of traced runs.
  Versions Vs;
  Vs.Edits = Edits;
  uint64_t OracleNs = 0;
  double OracleCpu = 0;
  double Cpu0 = processCpuSeconds();
  uint64_t W0 = nowNs();
  for (uint64_t I = 0; I < Rounds; ++I) {
    uint64_t T0 = nowNs();
    std::string Src = Vs.next(I);
    std::unique_ptr<ir::Program> Prog = compileSource(Src);
    uint64_t TSubmit = nowNs();
    serving::SubmitStatus St = Ten.Reg->submitEdit(
        Ten.Id, std::move(Prog), workload::editedFunctionName(Edits[I]),
        I + 1);
    Ten.Reg->waitIdle();
    uint64_t TPublished = nowNs();
    std::shared_ptr<const query::QuerySnapshot> Snap =
        Ten.Reg->snapshot(Ten.Id);
    std::vector<BurstQuery> Qs = burstFor(*Snap, Cfg.Seed, I);
    std::vector<BurstAnswer> As = answerBurst(
        Qs,
        [&](const BurstQuery &Q) {
          return Ten.Reg->mayAlias(Ten.Id, Q.A, Q.B);
        },
        [&](const BurstQuery &Q) {
          return Ten.Reg->pointsToAt(Ten.Id, Q.A, Q.Loc);
        });
    R.OpNs.push_back(nowNs() - T0);
    R.PublishNs.push_back(TPublished - TSubmit);

    // Checks and accounting, outside the timed op.
    if (St != serving::SubmitStatus::Accepted)
      R.fail(std::string("edit_serve: submit ") +
             serving::submitStatusName(St));
    const core::BootstrapResult &Res =
        Ten.Reg->service(Ten.Id).driver().lastResult();
    for (const core::ClusterRunResult &C : Res.Clusters) {
      ++R.ClustersAnalyzed;
      if (!C.BudgetHit && !C.Approximated)
        ++R.ClustersComplete;
      ++R.Counts[C.FromCache ? "core.clusters_from_cache"
                             : "core.clusters_reanalyzed"];
    }
    R.Counts["core.clusters"] += Res.Clusters.size();
    countRungs(R, As);
    checkPartitions(R, *Snap, Qs, As, I);
    if (I % CheckEvery == CheckEvery - 1 || I + 1 == Rounds) {
      // Excluded from the timed phase's wall and CPU time.
      uint64_t O0 = nowNs();
      double OCpu0 = processCpuSeconds();
      // incremental == cold: a never-incremental service over the same
      // version must give the same race verdicts and burst answers.
      racecheck::RaceCheckService Cold(editOptions());
      Cold.update(compileSource(Src));
      std::shared_ptr<const query::QuerySnapshot> ColdSnap =
          Cold.alias().engine().snapshot();
      std::vector<BurstAnswer> ColdAs = answerBurst(
          Qs,
          [&](const BurstQuery &Q) { return ColdSnap->mayAlias(Q.A, Q.B); },
          [&](const BurstQuery &Q) {
            return ColdSnap->pointsToAt(Q.A, Q.Loc);
          });
      bool Same = racecheck::toReportJson(*Cold.report()) ==
                  racecheck::toReportJson(*Ten.Reg->raceReport(Ten.Id));
      for (size_t K = 0; K < As.size(); ++K)
        Same = Same && As[K].Value == ColdAs[K].Value;
      if (!Same)
        R.fail("edit_serve: round " + std::to_string(I) +
               " differs from a cold service");
      OracleNs += nowNs() - O0;
      OracleCpu += processCpuSeconds() - OCpu0;
    }
  }
  double Wall = double(nowNs() - W0 - OracleNs) * 1e-9;
  double Cpu = processCpuSeconds() - Cpu0 - OracleCpu;

  // Ledger: closed loop, so nothing may coalesce or bounce.
  serving::TenantStats TS = Ten.Reg->stats(Ten.Id);
  if (TS.EditsApplied != Rounds + 1 || TS.EditsCoalesced != 0 ||
      TS.EditsRejected != 0)
    R.fail("edit_serve: ledger applied " + std::to_string(TS.EditsApplied) +
           ", coalesced " + std::to_string(TS.EditsCoalesced) +
           ", rejected " + std::to_string(TS.EditsRejected));
  R.Counts["serving.edits_applied"] = TS.EditsApplied;
  R.Counts["serving.edits_coalesced"] = TS.EditsCoalesced;
  R.Counts["serving.edits_rejected"] = TS.EditsRejected;
  R.Counts["racecheck.warnings"] = TS.RaceWarnings;

  if (!Cfg.Trace) {
    R.TimedWallSeconds = Wall;
    R.TimedCpuSeconds = Cpu;
    return R;
  }
  R.UntracedPassSeconds = Wall;

  // Traced pass: the same rounds through the calls a publish composes,
  // on a fresh stack configured the way the registry configures a
  // tenant (private caches and statistics).
  uint16_t NOp = T.name("bench.op"), NCompile = T.name("frontend.compile"),
           NFp = T.name("ir.fingerprint"), NUpdate = T.name("core.update"),
           NBuild = T.name("query.snapshot_build"),
           NCheck = T.name("racecheck.check");
  QuerySpanNames Names(T);

  core::BootstrapOptions BO = editOptions();
  BO.SummaryCache = std::make_shared<fscs::SummaryCache>();
  BO.RelevantSliceCache = std::make_shared<core::SliceCache>();
  BO.AndersenRefinementCache = std::make_shared<core::RefinementCache>();
  BO.StatsRegistry = std::make_shared<Statistics>();
  core::IncrementalDriver Inc(BO);
  query::QueryOptions QO = servingOptions().QOpts;
  QO.EngineOpts = Inc.options().EngineOpts;
  QO.AndersenOpts = Inc.options().AndersenOpts;
  racecheck::RaceCheckEngine Eng;
  {
    const core::BootstrapResult &Res0 = Inc.update(compileSource(V0));
    Eng.check(query::QuerySnapshot::build(Inc.programPtr(), Inc.lastCover(),
                                          &Res0.Clusters, QO,
                                          Inc.options().SummaryCache),
              nullptr, &Inc.functionFingerprints());
  }

  RunResult Traced;
  Versions TVs;
  TVs.Edits = Edits;
  Cpu0 = processCpuSeconds();
  W0 = nowNs();
  for (uint64_t I = 0; I < Rounds; ++I) {
    uint32_t Op = uint32_t(I + 1);
    uint64_t T0 = nowNs();
    std::shared_ptr<const query::QuerySnapshot> Snap;
    std::vector<BurstQuery> Qs;
    std::vector<BurstAnswer> As;
    core::UpdateReport Rep;
    racecheck::CheckReport Chk;
    {
      Span OpSpan(T, NOp, 0, Op);
      uint32_t P = OpSpan.id();
      std::string Src = TVs.next(I);
      std::unique_ptr<ir::Program> Prog;
      {
        Span S(T, NCompile, P, Op);
        Prog = compileSource(Src);
      }
      Traced.Counts["frontend.source_bytes"] += Src.size();
      {
        Span S(T, NFp, P, Op);
        std::vector<ir::FunctionFingerprint> FPs =
            ir::functionFingerprints(*Prog);
        Traced.Counts["ir.functions_fingerprinted"] += FPs.size();
        (void)ir::partitionRelevantFingerprint(*Prog);
      }
      const core::BootstrapResult *Res = nullptr;
      {
        Span S(T, NUpdate, P, Op);
        Res = &Inc.update(std::move(Prog), &Rep);
      }
      {
        Span S(T, NBuild, P, Op);
        Snap = query::QuerySnapshot::build(Inc.programPtr(), Inc.lastCover(),
                                           &Res->Clusters, QO,
                                           Inc.options().SummaryCache);
      }
      {
        Span S(T, NCheck, P, Op);
        Chk = Eng.check(Snap, &Rep, &Inc.functionFingerprints());
      }
      Qs = burstFor(*Snap, Cfg.Seed, I);
      Names.newSnapshot();
      auto TimedQuery = [&](auto Query) {
        uint64_t M = Snap->stats().Materializations;
        Span S(T, Names.rung(query::AnswerSource::Index), P, Op);
        auto A = Query();
        S.rename(Names.label(A.Source, Snap->stats().Materializations > M));
        return A;
      };
      As = answerBurst(
          Qs,
          [&](const BurstQuery &Q) {
            return TimedQuery([&] { return Snap->mayAlias(Q.A, Q.B); });
          },
          [&](const BurstQuery &Q) {
            return TimedQuery([&] { return Snap->pointsToAt(Q.A, Q.Loc); });
          });
    }
    Traced.OpNs.push_back(nowNs() - T0);
    Traced.Counts["core.clusters"] += Rep.NumClusters;
    Traced.Counts["core.clusters_reanalyzed"] += Rep.ClustersReanalyzed;
    Traced.Counts["core.clusters_from_cache"] += Rep.ClustersFromCache;
    Traced.Counts["core.steensgaard_adopted"] += Rep.SteensgaardAdopted;
    Traced.Counts["racecheck.functions_checked"] += Chk.FunctionsChecked;
    Traced.Counts["racecheck.functions_from_cache"] += Chk.FunctionsFromCache;
    query::SnapshotStats SS = Snap->stats();
    Traced.Counts["query.materializations"] += SS.Materializations;
    Traced.Counts["query.cache_adoptions"] += SS.CacheAdoptions;
    Traced.Counts["query.evictions"] += SS.Evictions;
    countRungs(Traced, As);
    checkPartitions(Traced, *Snap, Qs, As, I);
  }
  R.TracedPassSeconds = double(nowNs() - W0) * 1e-9;
  R.TimedWallSeconds = R.TracedPassSeconds;
  R.TimedCpuSeconds = processCpuSeconds() - Cpu0;
  R.TracedOps = Rounds;
  support::CacheCounters SC = Inc.options().SummaryCache->counters();
  R.Values["fscs.summary_cache_hit_ratio"] = SC.hitRate();

  // The two passes analysed the same versions: their shared counters
  // must agree.
  for (const char *K : {"core.clusters", "core.clusters_reanalyzed",
                        "core.clusters_from_cache", "query.index_answers",
                        "query.fscs_answers", "query.andersen_answers",
                        "query.steensgaard_answers"})
    if (Traced.Counts[K] != R.Counts[K])
      R.fail(std::string("edit_serve: traced pass disagrees on ") + K);
  for (const auto &[K, V] : Traced.Counts)
    R.Counts[K] = V;
  R.OpNs = std::move(Traced.OpNs);
  R.Failed += Traced.Failed;
  R.Failures.insert(R.Failures.end(), Traced.Failures.begin(),
                    Traced.Failures.end());
  return R;
}

} // namespace perfbench
} // namespace bsaa
