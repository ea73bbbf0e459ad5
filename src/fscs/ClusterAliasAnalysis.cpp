//===- fscs/ClusterAliasAnalysis.cpp - Per-cluster FSCS queries -----------===//

#include "fscs/ClusterAliasAnalysis.h"

#include "analysis/Steensgaard.h"
#include "fscs/Dovetail.h"
#include "support/SparseBitVector.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

using namespace bsaa;
using namespace bsaa::fscs;
using namespace bsaa::ir;

namespace {

uint64_t refHash(Ref R) {
  return (uint64_t(R.Var) << 2) | uint64_t(uint8_t(R.Deref + 1));
}

} // namespace

ClusterAliasAnalysis::ClusterAliasAnalysis(
    const Program &P, const CallGraph &CG,
    const analysis::SteensgaardAnalysis &Steens, const core::Cluster &C)
    : ClusterAliasAnalysis(P, CG, Steens, C, SummaryEngine::Options()) {}

ClusterAliasAnalysis::ClusterAliasAnalysis(
    const Program &P, const CallGraph &CG,
    const analysis::SteensgaardAnalysis &Steens, const core::Cluster &C,
    SummaryEngine::Options Opts, std::unique_ptr<AndersenOracle> Oracle)
    : Prog(P), Steens(Steens), Clu(C),
      Engine(std::make_unique<SummaryEngine>(P, CG, Steens, C, Opts,
                                             std::move(Oracle))) {}

void ClusterAliasAnalysis::prepare() {
  if (Prepared)
    return;
  Prepared = true;
  DoveStats = dovetail(*Engine, Prog, Steens, Clu);
}

void ClusterAliasAnalysis::adoptState(SummaryEngine::State S,
                                      const DovetailStats &D) {
  Engine->importState(std::move(S));
  DoveStats = D;
  // The adopted state already contains the dovetail warmup's FSCI memo;
  // running prepare() again would only re-issue memoized queries.
  Prepared = true;
}

void ClusterAliasAnalysis::ensurePrepared() { prepare(); }

//===--------------------------------------------------------------------===//
// FSCI queries
//===--------------------------------------------------------------------===//

const ClusterAliasAnalysis::PointsToResult &
ClusterAliasAnalysis::pointsToRef(VarId V, LocId Loc) {
  ensurePrepared();
  MemoEntry &M = AnswerMemo[(uint64_t(V) << 32) | Loc];
  uint64_t Before = Engine->version();
  if (M.Version == Before)
    return M.Answer;
  ++NumWalks;
  M.Answer.Objects = Engine->walkOrigins(V, Loc).toVector();
  M.Answer.Complete =
      !Engine->budgetExhausted() && !Engine->hasApproximation();
  // A walk that changed the engine (new keys, results, flags) is not a
  // function of the state it started from; the next query re-walks.
  M.Version = Engine->version() == Before ? Before : MemoEntry::Stale;
  return M.Answer;
}

bool ClusterAliasAnalysis::mayAlias(VarId A, VarId B, LocId Loc) {
  if (A == B)
    return true;
  // A != B: the two references name distinct memo entries.
  const PointsToResult &PA = pointsToRef(A, Loc);
  const PointsToResult &PB = pointsToRef(B, Loc);
  // Sorted vectors: linear intersection test.
  size_t I = 0, J = 0;
  while (I < PA.Objects.size() && J < PB.Objects.size()) {
    if (PA.Objects[I] < PB.Objects[J])
      ++I;
    else if (PA.Objects[I] > PB.Objects[J])
      ++J;
    else
      return true;
  }
  return false;
}

bool ClusterAliasAnalysis::mustAlias(VarId A, VarId B, LocId Loc) {
  if (A == B)
    return true;
  const PointsToResult &PA = pointsToRef(A, Loc);
  const PointsToResult &PB = pointsToRef(B, Loc);
  return PA.Complete && PB.Complete && PA.Objects.size() == 1 &&
         PA.Objects == PB.Objects;
}

//===--------------------------------------------------------------------===//
// Context-sensitive queries
//===--------------------------------------------------------------------===//

ClusterAliasAnalysis::PointsToResult
ClusterAliasAnalysis::pointsToInContext(VarId V, LocId Loc,
                                        const Context &Ctx) {
  ensurePrepared();
  PointsToResult Out;
  SparseBitVector Objects;
  bool Complete = true;

  // Work items: (ref, location to query before, remaining context
  // depth). The context is consumed innermost-out.
  struct Item {
    Ref R;
    LocId At;
    size_t Depth; ///< Number of context frames still below us.
  };
  std::deque<Item> Queue;
  std::unordered_set<uint64_t> Visited;
  auto Push = [&](Ref R, LocId At, size_t Depth) {
    uint64_t H = refHash(R) ^ (uint64_t(At) << 24) ^
                 (uint64_t(Depth) << 54);
    if (Visited.insert(H).second)
      Queue.push_back(Item{R, At, Depth});
  };
  Push(Ref::direct(V), Loc, Ctx.size());

  while (!Queue.empty()) {
    Item It = Queue.front();
    Queue.pop_front();
    for (SummaryTuple &T : Engine->originsBefore(It.At, It.R)) {
      if (!Engine->satisfiable(T.Cond))
        continue;
      if (T.isResolved()) {
        Objects.set(T.Origin.Var);
        continue;
      }
      if (It.Depth == 0) {
        // Unresolved at the outermost frame's entry: uninitialized.
        continue;
      }
      // Splice into the caller at the specific context call site.
      LocId CallSite = Ctx[It.Depth - 1];
      Push(T.Origin, CallSite, It.Depth - 1);
    }
  }

  Out.Objects = Objects.toVector();
  Out.Complete = Complete && !Engine->budgetExhausted() &&
                 !Engine->hasApproximation();
  return Out;
}

bool ClusterAliasAnalysis::mayAliasInContext(VarId A, VarId B, LocId Loc,
                                             const Context &Ctx) {
  if (A == B)
    return true;
  PointsToResult PA = pointsToInContext(A, Loc, Ctx);
  PointsToResult PB = pointsToInContext(B, Loc, Ctx);
  size_t I = 0, J = 0;
  while (I < PA.Objects.size() && J < PB.Objects.size()) {
    if (PA.Objects[I] < PB.Objects[J])
      ++I;
    else if (PA.Objects[I] > PB.Objects[J])
      ++J;
    else
      return true;
  }
  return false;
}

bool ClusterAliasAnalysis::mustAliasInContext(VarId A, VarId B, LocId Loc,
                                              const Context &Ctx) {
  if (A == B)
    return true;
  PointsToResult PA = pointsToInContext(A, Loc, Ctx);
  PointsToResult PB = pointsToInContext(B, Loc, Ctx);
  return PA.Complete && PB.Complete && PA.Objects.size() == 1 &&
         PA.Objects == PB.Objects;
}
