//===- perfbench/harness/Restart.cpp - Warm-restart workload --------------===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `restart`: set-up runs autofs cold through a TenantRegistry whose
/// fresh CacheStore writes every cache insert through to disk, so the
/// store's encode-and-write cost lands in setup_s. One op is one
/// restart: a fresh registry over the reopened store publishes the same
/// program -- every cluster revives from the store, the engine re-runs
/// nothing -- and answers a fixed seeded query batch. The store's
/// segments stay in the page cache, so an op measures index scan and
/// decode, not disk I/O.
///
/// The traced pass replays the restarts through CacheStore::open,
/// IncrementalDriver::update and QuerySnapshot::build, and once per run
/// decodes and re-encodes every live record through the public codecs.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "core/StoreCodecs.h"
#include "fscs/StateCodec.h"
#include "serving/TenantRegistry.h"
#include "support/Statistics.h"
#include "workload/BenchmarkSuite.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

namespace bsaa {
namespace perfbench {
namespace {

constexpr double ProgramScale = 0.05;
constexpr unsigned SetupReps = 3;
constexpr double NominalRestartsPerSecond = 10;
constexpr unsigned RandomPairs = 64;

core::BootstrapOptions restartOptions() {
  core::BootstrapOptions O;
  O.EngineOpts.StepBudget = 50000;
  return O;
}

serving::ServingOptions servingOptions(const std::string &Dir) {
  serving::ServingOptions SO;
  SO.BOpts = restartOptions();
  SO.BOpts.StorePath = Dir;
  SO.QOpts.MaxMaterializedClusters = size_t(1) << 20;
  SO.DrainThreads = 1;
  return SO;
}

struct PairQuery {
  ir::VarId A = 0, B = 0;
};

/// One pair per multi-pointer cluster (first touches), then seeded
/// random pointer pairs.
std::vector<PairQuery> queryBatch(const query::QuerySnapshot &Snap,
                                  uint64_t Seed) {
  const ir::Program &P = Snap.program();
  support::SplitMix64 R(deriveSeed(Seed, 3));
  std::vector<PairQuery> Qs;
  for (const core::Cluster &C : Snap.cover()) {
    std::vector<ir::VarId> M;
    for (ir::VarId V : C.Members)
      if (P.var(V).isPointer())
        M.push_back(V);
    if (M.size() >= 2)
      Qs.push_back({M[R.next() % M.size()], M[R.next() % M.size()]});
  }
  std::vector<ir::VarId> Ptrs = pointerVars(P);
  for (unsigned I = 0; I < RandomPairs; ++I)
    Qs.push_back({Ptrs[R.next() % Ptrs.size()], Ptrs[R.next() % Ptrs.size()]});
  return Qs;
}

/// Keys and families of every record in the store's segment files, in
/// file order. CacheStore indexes records privately; the benchmark
/// walks the documented segment layout (8-byte magic, then records of
/// a 32-byte header -- magic, family, version, reserved, key hi/lo,
/// payload length, crc -- and the payload) to enumerate them.
std::vector<std::pair<support::Digest, uint8_t>>
storeKeys(const std::string &Dir) {
  std::vector<std::string> Files;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".seg")
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());
  std::vector<std::pair<support::Digest, uint8_t>> Keys;
  for (const std::string &F : Files) {
    std::ifstream In(F, std::ios::binary);
    std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                               std::istreambuf_iterator<char>());
    size_t Off = 8;
    while (Off + 32 <= Bytes.size()) {
      support::ByteReader Rd(Bytes.data() + Off, 32);
      uint32_t Magic = Rd.u32();
      uint8_t Family = Rd.u8();
      (void)Rd.u8();
      (void)Rd.u16();
      support::Digest K;
      K.Hi = Rd.u64();
      K.Lo = Rd.u64();
      uint32_t Len = Rd.u32();
      if (Magic != 0x43525342u || Off + 32 + Len > Bytes.size())
        break;
      Keys.push_back({K, Family});
      Off += 32 + Len;
    }
  }
  return Keys;
}

} // namespace

RunResult runRestart(const RunConfig &Cfg, Tracer &T) {
  RunResult R;
  R.Clients = 1;
  R.Threads = 1;
  std::string Src = workload::generateProgram(
      workload::suiteEntry("autofs", ProgramScale).Config);
  std::string Dir = Cfg.WorkDir + "/restart-store";

  // Set-up: a cold lifetime over an empty store, writing through. Its
  // answers are the reference every restart must reproduce.
  std::vector<PairQuery> Qs;
  std::vector<uint8_t> Reference = timedSetups(
      R, Cfg.Trace ? 1 : SetupReps, [&] {
        std::filesystem::remove_all(Dir);
        serving::TenantRegistry Reg(servingOptions(Dir));
        serving::TenantId Id = Reg.addTenant("restart");
        Reg.submitEdit(Id, compileSource(Src));
        Reg.waitIdle();
        std::shared_ptr<const query::QuerySnapshot> Snap = Reg.snapshot(Id);
        if (!Snap)
          throw std::runtime_error("restart: cold publish failed");
        Qs = queryBatch(*Snap, Cfg.Seed);
        std::vector<uint8_t> Out;
        for (const PairQuery &Q : Qs)
          Out.push_back(Reg.mayAlias(Id, Q.A, Q.B).MayAlias ? 1 : 0);
        return Out;
      });

  uint64_t Restarts = scaledCount(NominalRestartsPerSecond, Cfg.Seconds, 20);
  if (Cfg.Trace)
    Restarts = std::max<uint64_t>(20, Restarts / 2);

  auto Check = [&](RunResult &Into, const query::QuerySnapshot &Snap,
                   const std::vector<uint8_t> &Got, uint64_t I) {
    bool Ok = Got == Reference;
    for (size_t K = 0; Ok && K < Qs.size(); ++K)
      Ok = !Got[K] || Snap.steensgaard().samePartition(Qs[K].A, Qs[K].B);
    if (!Ok)
      Into.fail("restart: restart " + std::to_string(I) +
                " answers differ from the cold run");
  };
  auto CountClusters = [](RunResult &Into,
                          const std::vector<core::ClusterRunResult> &Cs) {
    for (const core::ClusterRunResult &C : Cs) {
      ++Into.ClustersAnalyzed;
      if (!C.BudgetHit && !C.Approximated)
        ++Into.ClustersComplete;
      ++Into.Counts[C.FromCache ? "core.clusters_from_cache"
                                : "core.clusters_reanalyzed"];
    }
    Into.Counts["core.clusters"] += Cs.size();
  };

  // Registry restarts: the timed phase of untraced runs, the overhead
  // baseline of traced ones.
  RunResult Base;
  double Cpu0 = processCpuSeconds(), ExcludedCpu = 0;
  uint64_t Excluded = 0;
  uint64_t W0 = nowNs();
  for (uint64_t I = 0; I < Restarts; ++I) {
    uint64_t C0 = nowNs();
    double CCpu0 = processCpuSeconds();
    std::unique_ptr<ir::Program> P = compileSource(Src);
    ExcludedCpu += processCpuSeconds() - CCpu0;
    uint64_t T0 = nowNs();
    auto Reg = std::make_unique<serving::TenantRegistry>(servingOptions(Dir));
    serving::TenantId Id = Reg->addTenant("restart");
    Reg->submitEdit(Id, std::move(P));
    Reg->waitIdle();
    std::vector<uint8_t> Got;
    for (const PairQuery &Q : Qs)
      Got.push_back(Reg->mayAlias(Id, Q.A, Q.B).MayAlias ? 1 : 0);
    uint64_t T1 = nowNs();
    Base.OpNs.push_back(T1 - T0);
    double DCpu0 = processCpuSeconds();
    std::shared_ptr<const query::QuerySnapshot> Snap = Reg->snapshot(Id);
    Check(Base, *Snap, Got, I);
    CountClusters(Base, Reg->service(Id).driver().lastResult().Clusters);
    support::CacheStoreCounters SC = Reg->options().BOpts.Store->counters();
    Base.Counts["store.gets"] += SC.Gets;
    Base.Counts["store.get_hits"] += SC.GetHits;
    Base.Counts["store.puts"] += SC.Puts;
    Snap.reset();
    Reg.reset();
    // The compile, the checks and the teardown are not part of a
    // restart op.
    ExcludedCpu += processCpuSeconds() - DCpu0;
    Excluded += (T0 - C0) + (nowNs() - T1);
  }
  double Wall = double(nowNs() - W0 - Excluded) * 1e-9;
  double Cpu = processCpuSeconds() - Cpu0 - ExcludedCpu;

  {
    std::shared_ptr<support::CacheStore> Store = support::CacheStore::open(Dir);
    support::CacheStoreCounters SC = Store->counters();
    Base.Counts["store.records"] = SC.Records;
    Base.Counts["store.live_bytes"] = SC.LiveBytes;
  }

  if (!Cfg.Trace) {
    R.OpNs = std::move(Base.OpNs);
    R.Counts = std::move(Base.Counts);
    R.Failed += Base.Failed;
    R.Failures = Base.Failures;
    R.ClustersAnalyzed = Base.ClustersAnalyzed;
    R.ClustersComplete = Base.ClustersComplete;
    R.TimedWallSeconds = Wall;
    R.TimedCpuSeconds = Cpu;
    std::filesystem::remove_all(Dir);
    return R;
  }
  R.UntracedPassSeconds = Wall;
  R.Failed += Base.Failed;
  R.Failures = Base.Failures;

  uint16_t NOp = T.name("bench.op"), NOpen = T.name("store.open"),
           NUpdate = T.name("core.update"),
           NBuild = T.name("query.snapshot_build"),
           NDecode = T.name("store.decode"), NEncode = T.name("store.encode");
  QuerySpanNames Names(T);

  Cpu0 = processCpuSeconds();
  W0 = nowNs();
  Excluded = 0;
  double HitRatioSum = 0;
  for (uint64_t I = 0; I < Restarts; ++I) {
    uint64_t C0 = nowNs();
    std::unique_ptr<ir::Program> P = compileSource(Src);
    uint32_t Op = uint32_t(I + 1);
    uint64_t T0 = nowNs();
    std::vector<uint8_t> Got;
    std::shared_ptr<const query::QuerySnapshot> Snap;
    std::unique_ptr<core::IncrementalDriver> Inc;
    std::shared_ptr<support::CacheStore> Store;
    {
      Span OpSpan(T, NOp, 0, Op);
      {
        Span S(T, NOpen, OpSpan.id(), Op);
        Store = support::CacheStore::open(Dir);
      }
      core::UpdateReport Rep;
      {
        Span S(T, NUpdate, OpSpan.id(), Op);
        core::BootstrapOptions BO = restartOptions();
        BO.Store = Store;
        BO.SummaryCache = std::make_shared<fscs::SummaryCache>();
        BO.RelevantSliceCache = std::make_shared<core::SliceCache>();
        BO.AndersenRefinementCache = std::make_shared<core::RefinementCache>();
        BO.StatsRegistry = std::make_shared<Statistics>();
        Inc = std::make_unique<core::IncrementalDriver>(BO);
        Inc->update(std::move(P), &Rep);
      }
      query::QueryOptions QO = servingOptions(Dir).QOpts;
      QO.EngineOpts = Inc->options().EngineOpts;
      QO.AndersenOpts = Inc->options().AndersenOpts;
      {
        Span S(T, NBuild, OpSpan.id(), Op);
        Snap = query::QuerySnapshot::build(
            Inc->programPtr(), Inc->lastCover(), &Inc->lastResult().Clusters,
            QO, Inc->options().SummaryCache);
      }
      Names.newSnapshot();
      for (const PairQuery &Q : Qs) {
        uint64_t M = Snap->stats().Materializations;
        Span S(T, Names.rung(query::AnswerSource::Index), OpSpan.id(), Op);
        query::AliasAnswer A = Snap->mayAlias(Q.A, Q.B);
        S.rename(Names.label(A.Source, Snap->stats().Materializations > M));
        Got.push_back(A.MayAlias ? 1 : 0);
      }
    }
    uint64_t T1 = nowNs();
    R.OpNs.push_back(T1 - T0);
    Check(R, *Snap, Got, I);
    CountClusters(R, Inc->lastResult().Clusters);
    support::CacheStoreCounters SC = Store->counters();
    HitRatioSum += SC.hitRate();
    R.Counts["store.gets"] += SC.Gets;
    R.Counts["store.get_hits"] += SC.GetHits;
    R.Counts["store.puts"] += SC.Puts;
    query::SnapshotStats SS = Snap->stats();
    R.Counts["query.index_answers"] += SS.IndexAnswers;
    R.Counts["query.fscs_answers"] += SS.FscsAnswers;
    R.Counts["query.andersen_answers"] += SS.AndersenAnswers;
    R.Counts["query.steensgaard_answers"] += SS.SteensgaardAnswers;
    R.Counts["query.materializations"] += SS.Materializations;
    R.Counts["query.cache_adoptions"] += SS.CacheAdoptions;
    Snap.reset();
    Inc.reset();
    Store.reset();
    Excluded += (T0 - C0) + (nowNs() - T1);
  }
  R.TracedPassSeconds = double(nowNs() - W0 - Excluded) * 1e-9;
  R.TimedWallSeconds = R.TracedPassSeconds;
  R.TimedCpuSeconds = processCpuSeconds() - Cpu0;
  R.TracedOps = Restarts;
  R.Values["store.hit_ratio"] = HitRatioSum / double(Restarts);

  // Once per run: every live record through the public decoders, then
  // the decoded values through the encoders.
  {
    std::shared_ptr<support::CacheStore> Store = support::CacheStore::open(Dir);
    std::vector<std::pair<support::Digest, uint8_t>> Keys = storeKeys(Dir);
    uint64_t Decoded = 0, Bytes = 0;
    for (const auto &[K, Family] : Keys) {
      std::optional<support::CacheStore::Record> Rec = Store->get(K, Family);
      if (!Rec)
        continue; // A first-wins loser; the live copy is decoded once.
      const uint8_t *D = Rec->Payload.data();
      size_t N = Rec->Payload.size();
      bool Ok = false;
      support::ByteWriter W;
      if (Family == fscs::StoreFamilySummary) {
        fscs::CachedClusterRun V;
        {
          Span S(T, NDecode, 0, 0);
          Ok = fscs::decodeCachedClusterRun(D, N, V);
        }
        Span S(T, NEncode, 0, 0);
        fscs::encodeCachedClusterRun(V, W);
      } else if (Family == core::StoreFamilySlice) {
        core::RelevantSlice V;
        {
          Span S(T, NDecode, 0, 0);
          Ok = core::decodeRelevantSlice(D, N, V);
        }
        Span S(T, NEncode, 0, 0);
        core::encodeRelevantSlice(V, W);
      } else if (Family == core::StoreFamilyRefinement) {
        std::vector<core::Cluster> V;
        {
          Span S(T, NDecode, 0, 0);
          Ok = core::decodeClusterVector(D, N, V);
        }
        Span S(T, NEncode, 0, 0);
        core::encodeClusterVector(V, W);
      }
      if (!Ok || W.bytes() != Rec->Payload)
        R.fail("restart: store record of family " + std::to_string(Family) +
               " does not round-trip");
      ++Decoded;
      Bytes += N;
    }
    support::CacheStoreCounters SC = Store->counters();
    R.Counts["store.records"] = SC.Records;
    R.Counts["store.live_bytes"] = SC.LiveBytes;
    R.Counts["store.records_decoded"] = Decoded;
    R.Values["store.mb"] = double(SC.LiveBytes) / 1e6;
    uint64_t Clusters = R.Counts["core.clusters"] / Restarts;
    R.Values["store.bytes_per_cluster"] =
        Clusters ? double(SC.LiveBytes) / double(Clusters) : 0.0;
    if (Bytes != SC.LiveBytes)
      R.fail("restart: decoded bytes do not cover the live records");
  }
  for (const char *K : {"core.clusters", "core.clusters_from_cache",
                        "core.clusters_reanalyzed", "store.gets",
                        "store.get_hits", "store.puts"})
    if (Base.Counts[K] != R.Counts[K])
      R.fail(std::string("restart: traced pass disagrees on ") + K);
  std::filesystem::remove_all(Dir);
  return R;
}

} // namespace perfbench
} // namespace bsaa
