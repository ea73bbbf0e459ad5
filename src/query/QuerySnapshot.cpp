//===- query/QuerySnapshot.cpp - Immutable query-serving snapshot ---------===//

#include "query/QuerySnapshot.h"

#include <algorithm>
#include <cassert>

using namespace bsaa;
using namespace bsaa::query;

const char *query::answerSourceName(AnswerSource S) {
  switch (S) {
  case AnswerSource::Index:
    return "index";
  case AnswerSource::Fscs:
    return "fscs";
  case AnswerSource::FscsPartial:
    return "fscs-partial";
  case AnswerSource::Andersen:
    return "andersen";
  case AnswerSource::Steensgaard:
    return "steensgaard";
  }
  return "unknown";
}

ir::LocId query::canonicalAliasLoc(const ir::Program &P, ir::VarId A,
                                   ir::VarId B) {
  ir::FuncId FA = P.var(A).Owner;
  ir::FuncId FB = P.var(B).Owner;
  ir::FuncId F =
      (FA != ir::InvalidFunc && FA == FB) ? FA : P.entryFunction();
  if (F == ir::InvalidFunc)
    return ir::InvalidLoc;
  return P.func(F).Exit;
}

namespace {

/// Intersection test over two sorted vectors.
bool sortedIntersects(const std::vector<ir::VarId> &A,
                      const std::vector<ir::VarId> &B) {
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I] < B[J])
      ++I;
    else if (B[J] < A[I])
      ++J;
    else
      return true;
  }
  return false;
}

void mergeSortedUnique(std::vector<ir::VarId> &Into,
                       const std::vector<ir::VarId> &From) {
  if (Into.empty()) {
    Into = From;
    return;
  }
  Into.insert(Into.end(), From.begin(), From.end());
  std::sort(Into.begin(), Into.end());
  Into.erase(std::unique(Into.begin(), Into.end()), Into.end());
}

} // namespace

std::shared_ptr<const QuerySnapshot>
QuerySnapshot::build(std::shared_ptr<const ir::Program> P,
                     std::shared_ptr<const core::SolvedCover> Solved,
                     const std::vector<core::ClusterRunResult> *Runs,
                     QueryOptions Opts,
                     std::shared_ptr<fscs::SummaryCache> Cache) {
  assert(P && Solved && "snapshot needs a program and its solve");
  return std::shared_ptr<const QuerySnapshot>(
      new QuerySnapshot(std::move(P), std::move(Solved), Runs,
                        std::move(Opts), std::move(Cache)));
}

QuerySnapshot::QuerySnapshot(std::shared_ptr<const ir::Program> P,
                             std::shared_ptr<const core::SolvedCover> SolvedIn,
                             const std::vector<core::ClusterRunResult> *Runs,
                             QueryOptions OptsIn,
                             std::shared_ptr<fscs::SummaryCache> CacheIn)
    : Prog(std::move(P)), Solved(std::move(SolvedIn)),
      Opts(std::move(OptsIn)), Cache(std::move(CacheIn)),
      Entries(new Entry[Solved->Clusters.size()]) {
  const std::vector<core::Cluster> &Cover = cover();
  // Inverted pointer -> cluster index. Cluster ids are appended in
  // ascending order, so every per-variable list comes out sorted.
  VarClusters.resize(Prog->numVars());
  for (uint32_t CI = 0; CI < Cover.size(); ++CI)
    for (ir::VarId M : Cover[CI].Members)
      if (M < VarClusters.size())
        VarClusters[M].push_back(CI);

  NeedsFallback.assign(Cover.size(), 0);
  if (Runs) {
    assert(Runs->size() == Cover.size() &&
           "run results must align index-for-index with the cover");
    Keys.reserve(Cover.size());
    for (uint32_t CI = 0; CI < Cover.size(); ++CI) {
      const core::ClusterRunResult &R = (*Runs)[CI];
      // A truncated run may have *lost* alias origins (it never invents
      // them), so its "no alias" verdicts are untrustworthy; route the
      // whole cluster through the fallback chain.
      NeedsFallback[CI] = R.engineStats().flagged();
      Keys.push_back(R.Key);
    }
    // Runs of a driver without a SummaryCache carry no keys.
    if (std::count(Keys.begin(), Keys.end(), support::Digest{}))
      Keys.clear();
  }
}

QuerySnapshot::~QuerySnapshot() = default;

const std::vector<uint32_t> &QuerySnapshot::clustersOf(ir::VarId V) const {
  static const std::vector<uint32_t> Empty;
  if (V >= VarClusters.size())
    return Empty;
  return VarClusters[V];
}

//===----------------------------------------------------------------------===//
// Materialization
//===----------------------------------------------------------------------===//

std::unique_lock<std::mutex>
QuerySnapshot::acquire(uint32_t ClusterIdx) const {
  Entry &E = Entries[ClusterIdx];
  // Test first: a bit that is already set costs no cache-line write.
  if (!E.Referenced.load(std::memory_order_relaxed))
    E.Referenced.store(true, std::memory_order_relaxed);
  std::unique_lock<std::mutex> Lock(E.M);
  if (!E.AA) {
    // Materializing one cluster holds only its own entry lock, so it
    // never blocks queries against others; waiters for *this* cluster
    // queue behind the construction.
    materializeLocked(ClusterIdx, E);
    size_t Cap = std::max<size_t>(1, Opts.MaxMaterializedClusters);
    if (NumResident.load(std::memory_order_relaxed) > Cap)
      evict(Cap, ClusterIdx);
  }
  return Lock;
}

void QuerySnapshot::materializeLocked(uint32_t ClusterIdx, Entry &E) const {
  auto AA = std::make_unique<fscs::ClusterAliasAnalysis>(
      *Prog, callGraph(), steensgaard(), cover()[ClusterIdx],
      Opts.EngineOpts);
  NumMaterializations.fetch_add(1, std::memory_order_relaxed);
  // The summary cache never evicts and flagged clusters never get
  // here (they go to the fallback chain first), so a snapshot built
  // over a cascade with a cache always finds the cluster's run.
  // prepare() is for snapshots without one.
  std::shared_ptr<const fscs::CachedClusterRun> Hit;
  if (Cache && hasClusterKeys())
    Hit = Cache->lookup(Keys[ClusterIdx]);
  if (Hit) {
    fscs::SummaryEngine::State S = Hit->Engine;
    AA->adoptState(std::move(S), Hit->Dove);
    NumCacheAdoptions.fetch_add(1, std::memory_order_relaxed);
  } else {
    AA->prepare();
  }
  E.AA = std::move(AA);
  NumResident.fetch_add(1, std::memory_order_relaxed);
}

size_t QuerySnapshot::evict(size_t Target, uint32_t Keep) const {
  std::lock_guard<std::mutex> Lock(EvictMutex);
  const size_t N = cover().size();
  size_t Evicted = 0;
  // The first sweep clears reference bits; from the third on they are
  // ignored, so queries that keep re-referencing entries cannot stall
  // the hand. Entries locked by a query are in use and skipped: the
  // hand only ever try-locks, so a caller holding its own entry (Keep)
  // cannot deadlock against it.
  for (size_t Step = 0;
       NumResident.load(std::memory_order_relaxed) > Target && Step < 3 * N;
       ++Step) {
    uint32_t CI = Hand;
    Hand = static_cast<uint32_t>((Hand + 1) % N);
    Entry &E = Entries[CI];
    if (CI == Keep)
      continue;
    if (Step < 2 * N && E.Referenced.exchange(false, std::memory_order_relaxed))
      continue;
    std::unique_lock<std::mutex> EntryLock(E.M, std::try_to_lock);
    if (!EntryLock.owns_lock() || !E.AA)
      continue;
    E.AA.reset();
    NumResident.fetch_sub(1, std::memory_order_relaxed);
    NumEvictions.fetch_add(1, std::memory_order_relaxed);
    ++Evicted;
  }
  return Evicted;
}

size_t QuerySnapshot::trimResident(size_t MaxResident) const {
  // Same floor as acquire(): one entry always stays resident, so a
  // global-budget trim can never race a concurrent materialization
  // into repeatedly evicting the cluster it serves.
  return evict(std::max<size_t>(1, MaxResident), UINT32_MAX);
}

const analysis::AndersenAnalysis &QuerySnapshot::andersen() const {
  std::call_once(AndersenOnce, [this] {
    auto A = std::make_unique<analysis::AndersenAnalysis>(*Prog,
                                                          Opts.AndersenOpts);
    A->run();
    AndersenFallback = std::move(A);
  });
  return *AndersenFallback;
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

void QuerySnapshot::countWalks(const fscs::ClusterAliasAnalysis &AA,
                               uint64_t Before) const {
  if (uint64_t N = AA.numWalks() - Before)
    Counters.add(WalksCounter, N);
}

AliasAnswer QuerySnapshot::fallbackMayAlias(ir::VarId A, ir::VarId B) const {
  AliasAnswer Ans;
  if (Opts.UseAndersenFallback) {
    Ans.MayAlias = andersen().mayAlias(A, B);
    Ans.Source = AnswerSource::Andersen;
  } else {
    Ans.MayAlias = steensgaard().mayAlias(A, B);
    Ans.Source = AnswerSource::Steensgaard;
  }
  countAnswer(Ans.Source);
  return Ans;
}

AliasAnswer QuerySnapshot::mayAlias(ir::VarId A, ir::VarId B) const {
  ir::LocId Loc = canonicalAliasLoc(*Prog, A, B);
  return mayAliasAt(A, B, Loc);
}

AliasAnswer QuerySnapshot::mayAliasAt(ir::VarId A, ir::VarId B,
                                      ir::LocId Loc) const {
  if (A >= Prog->numVars() || B >= Prog->numVars() ||
      !Prog->var(A).isPointer() || !Prog->var(B).isPointer()) {
    countAnswer(AnswerSource::Index);
    return {false, AnswerSource::Index};
  }
  if (A == B) {
    countAnswer(AnswerSource::Index);
    return {true, AnswerSource::Index};
  }

  // Theorem 7: p and q may alias only within a cluster containing both.
  // No shared cluster => no alias, straight from the index.
  const std::vector<uint32_t> &CA = clustersOf(A);
  const std::vector<uint32_t> &CB = clustersOf(B);
  bool AnyShared = false, AnyFallback = false;
  size_t I = 0, J = 0;
  if (Loc >= Prog->numLocs()) {
    // No location to evaluate flow-sensitively at (e.g. no entry
    // function); a flow-insensitive stage is the precise option left.
    while (I < CA.size() && J < CB.size()) {
      if (CA[I] < CB[J])
        ++I;
      else if (CB[J] < CA[I])
        ++J;
      else {
        AnyShared = true;
        break;
      }
    }
    if (!AnyShared) {
      countAnswer(AnswerSource::Index);
      return {false, AnswerSource::Index};
    }
    return fallbackMayAlias(A, B);
  }

  while (I < CA.size() && J < CB.size()) {
    if (CA[I] < CB[J]) {
      ++I;
    } else if (CB[J] < CA[I]) {
      ++J;
    } else {
      uint32_t CI = CA[I];
      ++I;
      ++J;
      AnyShared = true;
      if (NeedsFallback[CI]) {
        AnyFallback = true;
        continue;
      }
      std::unique_lock<std::mutex> Lock = acquire(CI);
      // A != B, so the two references name distinct memo entries.
      fscs::ClusterAliasAnalysis &AA = *Entries[CI].AA;
      uint64_t Walks = AA.numWalks();
      const fscs::ClusterAliasAnalysis::PointsToResult &PA =
          AA.pointsToRef(A, Loc);
      const fscs::ClusterAliasAnalysis::PointsToResult &PB =
          AA.pointsToRef(B, Loc);
      countWalks(AA, Walks);
      if (sortedIntersects(PA.Objects, PB.Objects)) {
        countAnswer(AnswerSource::Fscs);
        return {true, AnswerSource::Fscs};
      }
      // Serving-time truncation: a "no" built from incomplete origin
      // sets is as untrustworthy as a flagged cascade run.
      if (!PA.Complete || !PB.Complete)
        AnyFallback = true;
    }
  }

  if (!AnyShared) {
    countAnswer(AnswerSource::Index);
    return {false, AnswerSource::Index};
  }
  if (AnyFallback)
    return fallbackMayAlias(A, B);
  countAnswer(AnswerSource::Fscs);
  return {false, AnswerSource::Fscs};
}

PointsToAnswer QuerySnapshot::pointsToAt(ir::VarId V, ir::LocId Loc) const {
  PointsToAnswer Ans;
  if (V >= Prog->numVars()) {
    // Unknown id: "points to nothing" is a claim about a variable we
    // know nothing about, so it must not be reported as complete.
    Ans.Complete = false;
    countAnswer(AnswerSource::Index);
    return Ans;
  }
  if (!Prog->var(V).isPointer()) {
    // A known non-pointer definitively points to nothing.
    countAnswer(AnswerSource::Index);
    return Ans;
  }

  const std::vector<uint32_t> &CV = clustersOf(V);
  bool AnyFallback = CV.empty() || Loc >= Prog->numLocs();
  bool Truncated = false;
  if (!AnyFallback) {
    for (uint32_t CI : CV) {
      if (NeedsFallback[CI]) {
        AnyFallback = true;
        continue;
      }
      std::unique_lock<std::mutex> Lock = acquire(CI);
      fscs::ClusterAliasAnalysis &AA = *Entries[CI].AA;
      uint64_t Walks = AA.numWalks();
      const fscs::ClusterAliasAnalysis::PointsToResult &R =
          AA.pointsToRef(V, Loc);
      countWalks(AA, Walks);
      // Objects a truncated run *found* are real -- keep them and widen
      // with the fallback stage below.
      mergeSortedUnique(Ans.Objects, R.Objects);
      if (!R.Complete)
        Truncated = true;
    }
  }

  if (AnyFallback || Truncated) {
    if (Opts.UseAndersenFallback) {
      mergeSortedUnique(Ans.Objects, andersen().pointsToVars(V));
      Ans.Source = AnswerSource::Andersen;
    } else {
      mergeSortedUnique(Ans.Objects, steensgaard().pointsToVars(V));
      Ans.Source = AnswerSource::Steensgaard;
    }
    Ans.Complete = false;
  } else {
    Ans.Source = AnswerSource::Fscs;
    Ans.Complete = true;
  }
  countAnswer(Ans.Source);
  return Ans;
}

SnapshotStats QuerySnapshot::stats() const {
  SnapshotStats S;
  S.IndexAnswers = Counters.sum(size_t(AnswerSource::Index));
  S.FscsAnswers = Counters.sum(size_t(AnswerSource::Fscs));
  S.AndersenAnswers = Counters.sum(size_t(AnswerSource::Andersen));
  S.SteensgaardAnswers = Counters.sum(size_t(AnswerSource::Steensgaard));
  S.Walks = Counters.sum(WalksCounter);
  S.Materializations = NumMaterializations.load(std::memory_order_relaxed);
  S.CacheAdoptions = NumCacheAdoptions.load(std::memory_order_relaxed);
  S.Evictions = NumEvictions.load(std::memory_order_relaxed);
  S.Resident = NumResident.load(std::memory_order_relaxed);
  return S;
}
