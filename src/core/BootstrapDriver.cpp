//===- core/BootstrapDriver.cpp - The bootstrapping cascade ---------------===//

#include "core/BootstrapDriver.h"

#include "analysis/Andersen.h"
#include "analysis/OneLevelFlow.h"
#include "core/AliasCover.h"
#include "core/RelevantStatements.h"
#include "fscs/ClusterAliasAnalysis.h"
#include "support/Json.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>

using namespace bsaa;
using namespace bsaa::core;
using namespace bsaa::ir;

void core::detail::submitClusterJobOrThrow(ThreadPool &Pool,
                                           std::function<void()> Job) {
  if (!Pool.submit(std::move(Job)))
    throw std::runtime_error(
        "ThreadPool rejected a cluster job (pool shutting down); the "
        "cluster would silently report a default-initialized result");
}

BootstrapDriver::BootstrapDriver(const Program &P, BootstrapOptions Opts)
    : Prog(P), Opts(std::move(Opts)),
      CG(std::make_shared<const ir::CallGraph>(P)) {
  if (this->Opts.RelevantSliceCache)
    ProgFP = programFingerprint(P);
}

const analysis::SteensgaardAnalysis &BootstrapDriver::steensgaard() {
  if (!Steens) {
    Steens = std::make_shared<analysis::SteensgaardAnalysis>(Prog);
    if (Opts.AdoptSteensgaard)
      Steens->adoptSolutionFrom(*Opts.AdoptSteensgaard);
    else
      Steens->run();
    if (Opts.SummaryCache)
      ScopeKeys = std::make_unique<ScopeKeyIndex>(Prog, *CG, *Steens);
  }
  return *Steens;
}

namespace {

/// Splits \p Partition by the points-to sets of \p PointsToVarsOf:
/// one cluster per pointed-to cell, deduplicated, singletons for
/// pointers with no targets. Shared by the One-Flow and Andersen
/// refinement stages.
template <typename PtsFn>
std::vector<Cluster> splitByPointsTo(const Cluster &Partition,
                                     PtsFn PointsToVarsOf) {
  std::map<VarId, std::vector<VarId>> ByObject;
  std::vector<VarId> Unattached;
  for (VarId V : Partition.Members) {
    std::vector<VarId> Pts = PointsToVarsOf(V);
    if (Pts.empty()) {
      Unattached.push_back(V);
      continue;
    }
    for (VarId O : Pts)
      ByObject[O].push_back(V);
  }
  std::vector<Cluster> Out;
  // Ordered set: O(log n) membership instead of the O(n) linear scan a
  // vector would need, which made this O(n^2) in the cluster count.
  std::set<std::vector<VarId>> SeenMembers;
  for (auto &[Obj, Members] : ByObject) {
    (void)Obj;
    std::sort(Members.begin(), Members.end());
    Members.erase(std::unique(Members.begin(), Members.end()),
                  Members.end());
    if (!SeenMembers.insert(Members).second)
      continue;
    Cluster C;
    C.Members = Members;
    C.SourcePartition = Partition.SourcePartition;
    Out.push_back(std::move(C));
  }
  for (VarId V : Unattached) {
    Cluster C;
    C.Members = {V};
    C.SourcePartition = Partition.SourcePartition;
    Out.push_back(std::move(C));
  }
  eliminateSubsetClusters(Out);
  return Out;
}

/// Content key of one Andersen refinement: exactly the solver's inputs.
/// The solver sees the slice statements (as a constraint system over
/// raw VarIds) and the member list (as the pointers to cluster); var
/// records pin the type facts (isPointer etc.) the solver and the
/// clusterer consult. No program fingerprint: an edit elsewhere leaves
/// the key, and hence the cached refinement, valid.
support::Digest andersenRefinementKey(const Program &P, const Cluster &Part,
                                      const analysis::AndersenAnalysis::Options
                                          &AOpts) {
  support::ContentHasher H;
  H.u64(0x414e4452'5346494eull); // "ANDRSFIN"
  // Solver configuration. All configurations are proven result-equal
  // (the differential oracle pins that), but keying on them keeps the
  // cache honest under ablation runs that flip knobs back and forth.
  H.u32(uint32_t(AOpts.CycleElimination));
  H.u32(AOpts.CollapsePeriod);
  H.u32(uint32_t(AOpts.EnableHVN));
  H.u32(uint32_t(AOpts.EnableDiffProp));
  auto HashVar = [&](VarId V) {
    H.u32(V);
    if (V == InvalidVar)
      return;
    const Variable &Var = P.var(V);
    H.u32(uint32_t(Var.Kind));
    H.u32(uint32_t(Var.Base));
    H.u32(Var.PtrDepth);
    H.u32(Var.Owner);
  };
  H.u64(Part.Members.size());
  for (VarId V : Part.Members)
    HashVar(V);
  H.u64(Part.Statements.size());
  for (LocId L : Part.Statements) {
    const Location &Loc = P.loc(L);
    H.u32(L);
    H.u32(uint32_t(Loc.Kind));
    HashVar(Loc.Lhs);
    HashVar(Loc.Rhs);
  }
  return H.digest();
}

} // namespace

uint64_t core::approxClusterVectorBytes(const std::vector<Cluster> &Cs) {
  uint64_t N = sizeof(Cs);
  for (const Cluster &C : Cs)
    N += sizeof(Cluster) + C.Members.size() * sizeof(VarId);
  return N;
}

std::vector<Cluster> BootstrapDriver::refineByAndersen(const Cluster &Part) {
  support::Digest Key{0, 0};
  if (Opts.AndersenRefinementCache) {
    Key = andersenRefinementKey(Prog, Part, Opts.AndersenOpts);
    if (std::shared_ptr<const std::vector<Cluster>> Hit =
            Opts.AndersenRefinementCache->lookup(Key)) {
      std::vector<Cluster> Pieces = *Hit;
      // Partition ids are artifacts of the current Steensgaard solve
      // and may have been renumbered since the entry was inserted.
      for (Cluster &Piece : Pieces)
        Piece.SourcePartition = Part.SourcePartition;
      return Pieces;
    }
  }
  Timer TA;
  analysis::AndersenAnalysis Andersen(Prog, Opts.AndersenOpts);
  Andersen.runOn(Part.Statements);
  std::vector<Cluster> Pieces = andersenClusters(Prog, Andersen, Part);
  AndersenSeconds += TA.seconds();
  if (Opts.AndersenRefinementCache) {
    std::vector<Cluster> ToCache = Pieces;
    uint64_t Bytes = approxClusterVectorBytes(ToCache);
    Opts.AndersenRefinementCache->insert(Key, std::move(ToCache), Bytes);
  }
  return Pieces;
}

std::vector<Cluster> BootstrapDriver::buildCover() {
  const analysis::SteensgaardAnalysis &S = steensgaard();
  std::vector<Cluster> Partitions = steensgaardCover(Prog, S);
  SliceIndex Index(Prog, S);

  AndersenSeconds = 0;
  OneFlowSecs = 0;

  std::vector<Cluster> Cover;
  for (Cluster &Part : Partitions) {
    uint32_t Size = Part.pointerCount(Prog);
    if (Size == 0) {
      // No pointers: nothing to compute aliases for. (Plain-int value
      // chains are still tracked *inside* other clusters' slices.)
      continue;
    }
    // The size test alone implements the AndersenThreshold ==
    // UINT32_MAX "never refine" sentinel, since no pointer count
    // exceeds UINT32_MAX. (An explicit `== UINT32_MAX` disjunct that
    // used to sit here was unreachable dead code.)
    if (Size <= Opts.AndersenThreshold) {
      Cover.push_back(std::move(Part));
      continue;
    }

    // Oversized partition: refine. Either cascade stage runs only on
    // the partition's Algorithm-1 slice -- this is the bootstrapping.
    attachRelevantSlice(Prog, S, Part, Index,
                        Opts.RelevantSliceCache.get(), ProgFP);

    std::vector<Cluster> Pieces;
    if (Opts.UseOneFlow) {
      Timer T;
      analysis::OneLevelFlow Flow(Prog);
      Flow.runOn(Part.Statements);
      Pieces = splitByPointsTo(
          Part, [&Flow](VarId V) { return Flow.pointsToVars(V); });
      OneFlowSecs += T.seconds();
      // Anything One-Flow could not shrink falls through to Andersen.
      std::vector<Cluster> Final;
      for (Cluster &Piece : Pieces) {
        if (Piece.pointerCount(Prog) <= Opts.AndersenThreshold) {
          Final.push_back(std::move(Piece));
          continue;
        }
        attachRelevantSlice(Prog, S, Piece, Index,
                            Opts.RelevantSliceCache.get(), ProgFP);
        std::vector<Cluster> Sub = refineByAndersen(Piece);
        for (Cluster &SC : Sub)
          Final.push_back(std::move(SC));
      }
      Pieces = std::move(Final);
    } else {
      Pieces = refineByAndersen(Part);
    }
    for (Cluster &Piece : Pieces)
      Cover.push_back(std::move(Piece));
  }

  // Attach slices for every cluster that does not have one yet.
  for (Cluster &C : Cover)
    if (C.Statements.empty() && C.TrackedRefs.empty())
      attachRelevantSlice(Prog, S, C, Index,
                          Opts.RelevantSliceCache.get(), ProgFP);
  return Cover;
}

std::shared_ptr<const SolvedCover> BootstrapDriver::buildSolvedCover() {
  std::vector<Cluster> Cover = buildCover(); // Solves Steens first.
  return std::make_shared<const SolvedCover>(
      SolvedCover{CG, Steens, std::move(Cover)});
}

namespace {

/// The LPT dispatch key: how expensive this cluster's FSCS run is
/// likely to be. Pointer count times slice size tracks the dominant
/// cost terms (queries issued x statements each traversal may visit).
uint64_t clusterCostKey(const ir::Program &P, const Cluster &C) {
  uint64_t Pointers = C.pointerCount(P);
  uint64_t Slice = std::max<uint64_t>(1, C.Statements.size());
  return std::max<uint64_t>(1, Pointers) * Slice;
}

} // namespace

namespace {

/// Copies the replayable (non-timing) metrics of a cluster run out of
/// the engine/dovetail accounting. Shared by the compute path and the
/// cache-hit path so both produce bit-identical ClusterRunResults.
void fillClusterMetrics(ClusterRunResult &R,
                        const fscs::SummaryEngine::EngineStats &ES,
                        const fscs::DovetailStats &DS) {
  R.Steps = ES.Steps;
  R.SummaryTuples = ES.SummaryTuples;
  R.SummaryKeys = ES.Keys;
  R.BudgetHit = ES.BudgetHit;
  R.Approximated = ES.Approximated;
  R.DepthLevels = DS.DepthLevels;
  R.FsciQueries = DS.FsciQueries;
  R.DovetailComplete = DS.Complete;
}

} // namespace

ClusterRunResult BootstrapDriver::analyzeCluster(const Cluster &C) const {
  assert(Steens && "run steensgaard() before analyzing clusters");
  ClusterRunResult R;
  R.PointerCount = C.pointerCount(Prog);
  R.SliceSize = static_cast<uint32_t>(C.Statements.size());
  R.CostKey = clusterCostKey(Prog, C);
  Timer T;

  if (Opts.SummaryCache) {
    R.Key = ScopeKeys->key(C, Opts.EngineOpts);
    if (std::shared_ptr<const fscs::CachedClusterRun> Hit =
            Opts.SummaryCache->lookup(R.Key)) {
      // Replay the memoized run: identical metrics, identical global
      // statistics contributions, no SummaryEngine re-execution.
      fillClusterMetrics(R, Hit->Stats, Hit->Dove);
      R.FromCache = true;
      fscs::SummaryEngine::accumulateGlobalStats(Hit->Stats, stats());
      fscs::accumulateDovetailStats(Hit->Dove, stats());
      R.Seconds = T.seconds();
      return R;
    }
  }

  fscs::ClusterAliasAnalysis AA(
      Prog, *CG, *Steens, C, Opts.EngineOpts,
      std::make_unique<fscs::AndersenOracle>(Prog, C));
  AA.prepare();
  // Workload: the points-to set of every member pointer at its owning
  // function's exit (globals: at the entry function's exit).
  FuncId Entry = Prog.entryFunction();
  for (VarId V : C.Members) {
    const Variable &Var = Prog.var(V);
    if (!Var.isPointer())
      continue;
    FuncId Owner = Var.Owner != InvalidFunc ? Var.Owner : Entry;
    if (Owner == InvalidFunc)
      continue;
    AA.pointsTo(V, Prog.func(Owner).Exit);
    if (AA.engine().budgetExhausted())
      break;
  }
  R.Seconds = T.seconds();
  fscs::SummaryEngine::EngineStats ES = AA.engine().stats();
  fillClusterMetrics(R, ES, AA.dovetailStats());
  // Per-thread shards make this contention-free from worker threads.
  AA.engine().accumulateGlobalStats(stats());
  // Mirrored on the cache-hit path above so dovetail accounting in the
  // effective registry is invariant under cache replay.
  fscs::accumulateDovetailStats(AA.dovetailStats(), stats());

  if (Opts.SummaryCache) {
    // Publish the run, so a future hit replays it bit-for-bit (first
    // insert wins on a racing key).
    Opts.SummaryCache->insert(R.Key, fscs::CachedClusterRun::of(AA));
  }
  return R;
}

ClusterRunResult BootstrapDriver::runUnclustered() {
  steensgaard();
  Cluster Whole = wholeProgramCluster(Prog);
  return analyzeCluster(Whole);
}

BootstrapResult BootstrapDriver::runAll() { return runAll(buildCover()); }

BootstrapResult BootstrapDriver::runAll(const std::vector<Cluster> &Cover) {
  BootstrapResult Result;

  steensgaard();
  Result.SteensgaardSeconds = Steens->solveSeconds();

  Result.AndersenClusteringSeconds = AndersenSeconds;
  Result.OneFlowSeconds = OneFlowSecs;
  Result.NumClusters = static_cast<uint32_t>(Cover.size());
  Result.MaxClusterSize = maxClusterSize(Prog, Cover);

  Result.Clusters.resize(Cover.size());
  if (Opts.Threads > 1) {
    // Clusters are analyzed independently of one another: the paper's
    // parallelization claim, realized with a real thread pool. Jobs are
    // dispatched longest-processing-time first so a large cluster never
    // starts last and serializes the tail; each job writes its result
    // by discovery index, keeping Clusters ordering identical to the
    // sequential run.
    std::vector<size_t> Order(Cover.size());
    std::iota(Order.begin(), Order.end(), size_t(0));
    std::vector<uint64_t> Cost(Cover.size());
    for (size_t I = 0; I < Cover.size(); ++I)
      Cost[I] = clusterCostKey(Prog, Cover[I]);
    std::stable_sort(Order.begin(), Order.end(),
                     [&Cost](size_t A, size_t B) { return Cost[A] > Cost[B]; });

    ThreadPool Pool(Opts.Threads);
    for (size_t I : Order) {
      detail::submitClusterJobOrThrow(Pool, [this, &Cover, &Result, I] {
        if (Opts.ClusterHook)
          Opts.ClusterHook(Cover[I]);
        Result.Clusters[I] = analyzeCluster(Cover[I]);
      });
    }
    // Rethrows the first cluster-job exception after the batch drains.
    Pool.waitAll();
  } else {
    for (size_t I = 0; I < Cover.size(); ++I) {
      if (Opts.ClusterHook)
        Opts.ClusterHook(Cover[I]);
      Result.Clusters[I] = analyzeCluster(Cover[I]);
    }
  }

  for (const ClusterRunResult &R : Result.Clusters) {
    Result.TotalFscsSeconds += R.Seconds;
    Result.AnyBudgetHit |= R.BudgetHit;
  }
  Result.SimulatedParallelSeconds =
      simulateParallel(Result.Clusters, Opts.SimulatedParts);

  if (Opts.SummaryCache) {
    Result.SummaryCacheReport.Enabled = true;
    Result.SummaryCacheReport.Counters = Opts.SummaryCache->counters();
  }
  if (Opts.RelevantSliceCache) {
    Result.SliceCacheReport.Enabled = true;
    Result.SliceCacheReport.Counters = Opts.RelevantSliceCache->counters();
  }
  return Result;
}

double
BootstrapDriver::simulateParallel(const std::vector<ClusterRunResult> &Rs,
                                  uint32_t Parts) {
  if (Rs.empty() || Parts == 0)
    return 0;
  // The paper's greedy packing, done properly as LPT bin assignment
  // into exactly Parts fixed bins: sort clusters by descending pointer
  // count and put each into the currently least-loaded part. (The old
  // running-sum-threshold scheme could close more than Parts parts on
  // a ragged tail, under-reporting the max part time below the
  // total/Parts lower bound.)
  std::vector<size_t> Order(Rs.size());
  std::iota(Order.begin(), Order.end(), size_t(0));
  std::stable_sort(Order.begin(), Order.end(), [&Rs](size_t A, size_t B) {
    return Rs[A].PointerCount > Rs[B].PointerCount;
  });

  // More parts than clusters degenerates to one cluster per part; cap
  // the bin count so a huge Parts value does not allocate pointlessly.
  size_t Bins = std::min<size_t>(Parts, Rs.size());
  std::vector<uint64_t> PartPointers(Bins, 0);
  std::vector<double> PartSeconds(Bins, 0);
  for (size_t I : Order) {
    size_t Least = 0;
    for (size_t P = 1; P < PartPointers.size(); ++P)
      if (PartPointers[P] < PartPointers[Least])
        Least = P;
    PartPointers[Least] += Rs[I].PointerCount;
    PartSeconds[Least] += Rs[I].Seconds;
  }
  return *std::max_element(PartSeconds.begin(), PartSeconds.end());
}

Statistics &BootstrapDriver::stats() const {
  return Opts.StatsRegistry ? *Opts.StatsRegistry : Statistics::global();
}

namespace {

void emitCacheReport(support::JsonWriter &W, const char *Name,
                     const BootstrapResult::CacheReport &C) {
  W.key(Name).beginObject();
  W.field("enabled", C.Enabled)
      .field("hits", C.Counters.Hits)
      .field("misses", C.Counters.Misses)
      .field("inserts", C.Counters.Inserts)
      .field("bytes", C.Counters.Bytes)
      .field("hit_rate", C.Counters.hitRate())
      .field("store_hits", C.Counters.StoreHits)
      .field("store_misses", C.Counters.StoreMisses)
      .field("store_puts", C.Counters.StorePuts)
      .field("store_hit_rate", C.Counters.storeHitRate());
  W.endObject();
}

} // namespace

std::string core::toStatsJson(const BootstrapResult &R,
                              const StatsJsonOptions &O,
                              const Statistics &Stats) {
  support::JsonWriter W;
  W.beginObject();
  if (O.IncludeTimings)
    W.field("steensgaard_seconds", R.SteensgaardSeconds)
        .field("andersen_clustering_seconds", R.AndersenClusteringSeconds)
        .field("oneflow_seconds", R.OneFlowSeconds);
  W.field("num_clusters", R.NumClusters)
      .field("max_cluster_size", R.MaxClusterSize);
  if (O.IncludeTimings)
    W.field("total_fscs_seconds", R.TotalFscsSeconds)
        .field("simulated_parallel_seconds", R.SimulatedParallelSeconds);
  W.field("any_budget_hit", R.AnyBudgetHit);
  if (O.IncludeCacheStats) {
    emitCacheReport(W, "summary_cache", R.SummaryCacheReport);
    emitCacheReport(W, "slice_cache", R.SliceCacheReport);
  }
  W.key("clusters").beginArray();
  for (const ClusterRunResult &C : R.Clusters) {
    W.beginObject()
        .field("pointers", C.PointerCount)
        .field("slice_size", C.SliceSize)
        .field("cost_key", C.CostKey);
    if (O.IncludeTimings)
      W.field("seconds", C.Seconds);
    W.field("steps", C.Steps)
        .field("summary_tuples", C.SummaryTuples)
        .field("summary_keys", C.SummaryKeys)
        .field("depth_levels", C.DepthLevels)
        .field("fsci_queries", C.FsciQueries)
        .field("dovetail_complete", C.DovetailComplete)
        .field("budget_hit", C.BudgetHit)
        .field("approximated", C.Approximated);
    if (O.IncludeCacheStats)
      W.field("from_cache", C.FromCache);
    W.endObject();
  }
  W.endArray();
  W.key("statistics").beginObject();
  for (const auto &[Name, Value] : Stats.snapshot())
    W.field(Name, Value);
  W.endObject().endObject();
  return W.str();
}
