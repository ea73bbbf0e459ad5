//===- analysis/Andersen.cpp - Inclusion-based points-to ------------------===//

#include "analysis/Andersen.h"

#include "support/Scc.h"
#include "support/Timer.h"
#include "support/Worklist.h"

#include <algorithm>
#include <cassert>

using namespace bsaa;
using namespace bsaa::analysis;
using namespace bsaa::ir;

AndersenAnalysis::AndersenAnalysis(const Program &P)
    : AndersenAnalysis(P, Options()) {}

AndersenAnalysis::AndersenAnalysis(const Program &P, Options Opts)
    : Prog(P), Opts(Opts) {}

void AndersenAnalysis::collectConstraints(const std::vector<LocId> &Stmts) {
  auto IsConstraint = [](const Location &Loc) {
    switch (Loc.Kind) {
    case StmtKind::Copy:
    case StmtKind::AddrOf:
    case StmtKind::Alloc:
    case StmtKind::Load:
    case StmtKind::Store:
      return Loc.Lhs != InvalidVar && Loc.Rhs != InvalidVar;
    default:
      return false;
    }
  };
  Vars.clear();
  for (LocId L : Stmts) {
    const Location &Loc = Prog.loc(L);
    if (!IsConstraint(Loc))
      continue;
    Vars.push_back(Loc.Lhs);
    Vars.push_back(Loc.Rhs);
  }
  std::sort(Vars.begin(), Vars.end());
  Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
  NodeOf = U64FlatMap<uint32_t>();
  NodeOf.reserve(Vars.size());
  for (uint32_t N = 0; N < Vars.size(); ++N)
    NodeOf[Vars[N]] = N;
  Constraints.clear();
  for (LocId L : Stmts) {
    const Location &Loc = Prog.loc(L);
    if (IsConstraint(Loc))
      Constraints.push_back(
          {Loc.Kind, *NodeOf.find(Loc.Lhs), *NodeOf.find(Loc.Rhs)});
  }
}

void AndersenAnalysis::addConstraints() {
  for (const AndersenConstraint &C : Constraints) {
    switch (C.Kind) {
    case StmtKind::Copy:
      addCopyEdge(C.Rhs, C.Lhs);
      break;
    case StmtKind::AddrOf:
    case StmtKind::Alloc:
      Pts[Reps.find(C.Lhs)].set(C.Rhs);
      break;
    case StmtKind::Load: {
      uint32_t Idx = static_cast<uint32_t>(Loads.size());
      Loads.emplace_back(C.Rhs, C.Lhs);
      LoadsAt[Reps.find(C.Rhs)].push_back(Idx);
      break;
    }
    case StmtKind::Store: {
      uint32_t Idx = static_cast<uint32_t>(Stores.size());
      Stores.emplace_back(C.Lhs, C.Rhs);
      StoresAt[Reps.find(C.Lhs)].push_back(Idx);
      break;
    }
    default:
      break;
    }
  }
}

bool AndersenAnalysis::addCopyEdge(uint32_t From, uint32_t To) {
  uint32_t F = Reps.find(From), T = Reps.find(To);
  if (F == T)
    return false;
  if (!CopyDedup[F].insert(T).second)
    return false;
  Copy[F].push_back(T);
  return true;
}

void AndersenAnalysis::run() {
  std::vector<LocId> All;
  All.reserve(Prog.numLocs());
  for (LocId L = 0; L < Prog.numLocs(); ++L)
    if (Prog.loc(L).isPointerAssign())
      All.push_back(L);
  runOn(All);
}

void AndersenAnalysis::runOn(const std::vector<LocId> &Stmts) {
  Timer T;
  collectConstraints(Stmts);
  const uint32_t N = static_cast<uint32_t>(Vars.size());
  // A fresh forest every run: merges from a previous runOn (or its HVN
  // pass) describe a different statement slice and must not leak in.
  Reps = UnionFind(N);
  Pts.assign(N, SparseBitVector());
  Copy.assign(N, {});
  CopyDedup.assign(N, {});
  Delta.assign(Opts.EnableDiffProp ? N : 0, SparseBitVector());
  Loads.clear();
  Stores.clear();
  LoadsAt.assign(N, {});
  StoresAt.assign(N, {});
  PrepStats = PrepareStats();
  Iterations = 0;
  Collapsed = 0;
  PropagatedBytes = 0;

  if (Opts.EnableHVN)
    PrepStats = prepareAndersen(N, Constraints, Reps);

  addConstraints();
  solve();

  // Members are node ids; queries speak VarIds. Node ids order as their
  // VarIds do, so each translated set is built in ascending order.
  for (uint32_t V = 0; V < N; ++V) {
    if (Reps.find(V) != V || Pts[V].empty())
      continue;
    SparseBitVector Translated;
    Pts[V].forEach([&](uint32_t O) { Translated.set(Vars[O]); });
    Pts[V] = std::move(Translated);
  }
  // After this, find() never writes, so concurrent pointsTo() calls are
  // safe.
  Reps.compressAll();
  HasRun = true;
  SolveSeconds = T.seconds();
}

void AndersenAnalysis::solve() {
  const uint32_t N = static_cast<uint32_t>(Vars.size());
  const bool Diff = Opts.EnableDiffProp;
  Worklist WL(N);
  for (uint32_t V = 0; V < N; ++V)
    if (Reps.find(V) == V && !Pts[V].empty()) {
      if (Diff)
        Delta[V] = Pts[V];
      WL.push(V);
    }

  uint32_t Period = Opts.CollapsePeriod
                        ? Opts.CollapsePeriod
                        : std::max<uint32_t>(4 * N, 4096);
  uint64_t NextCollapse = Period;

  SparseBitVector Walk;
  while (!WL.empty()) {
    uint32_t V = Reps.find(WL.pop());
    ++Iterations;

    if (Opts.CycleElimination && Iterations >= NextCollapse) {
      collapseCycles(WL);
      NextCollapse = Iterations + Period;
      V = Reps.find(V);
    }

    // Pick the member set this pop walks. Under difference propagation
    // it is the pending delta -- only members added since V was last
    // processed; every older member has already been pushed through
    // V's constraints. Otherwise it is the full set; that full set is
    // snapshotted whenever complex constraints hang off V, because the
    // unions below may insert into Pts[V] itself (RX or RO can resolve
    // to V) and forEach must not iterate a vector being reallocated.
    bool Complex = !LoadsAt[V].empty() || !StoresAt[V].empty();
    if (Diff) {
      if (Delta[V].empty())
        continue;
      Walk = std::move(Delta[V]);
      Delta[V].clear();
    } else if (Complex) {
      Walk = Pts[V];
    }
    const SparseBitVector &WalkRef = (Diff || Complex) ? Walk : Pts[V];
    PropagatedBytes += Diff ? Walk.approxBytes() : Pts[V].approxBytes();

    // Complex constraints: each object o newly in pts(V) induces copy
    // edges for loads (o -> x) and stores (y -> o) hanging off V. A
    // freshly inserted edge immediately propagates the source's full
    // current set (the edge has never carried anything).
    for (uint32_t LoadIdx : LoadsAt[V]) {
      uint32_t X = Loads[LoadIdx].second;
      WalkRef.forEach([&](uint32_t O) {
        if (!addCopyEdge(O, X))
          return;
        uint32_t RO = Reps.find(O), RX = Reps.find(X);
        bool Grew = Diff ? Pts[RX].unionWith(Pts[RO], Delta[RX])
                         : Pts[RX].unionWith(Pts[RO]);
        if (Grew)
          WL.push(RX);
      });
    }
    for (uint32_t StoreIdx : StoresAt[V]) {
      uint32_t Y = Stores[StoreIdx].second;
      WalkRef.forEach([&](uint32_t O) {
        if (!addCopyEdge(Y, O))
          return;
        uint32_t RO = Reps.find(O), RY = Reps.find(Y);
        bool Grew = Diff ? Pts[RO].unionWith(Pts[RY], Delta[RO])
                         : Pts[RO].unionWith(Pts[RY]);
        if (Grew)
          WL.push(RO);
      });
    }

    // Simple copy propagation: existing edges have seen everything but
    // the delta, so the delta is all that needs to flow (the full set
    // under the naive walk).
    for (uint32_t To : Copy[V]) {
      uint32_t RT = Reps.find(To);
      if (RT == V)
        continue;
      bool Grew = Diff ? Pts[RT].unionWith(Walk, Delta[RT])
                       : Pts[RT].unionWith(Pts[V]);
      if (Grew)
        WL.push(RT);
    }
  }
}

void AndersenAnalysis::collapseCycles(Worklist &WL) {
  const uint32_t N = static_cast<uint32_t>(Vars.size());
  // SCC over the copy graph restricted to representatives.
  SccResult Sccs = computeSccs(
      N, [this](uint32_t V, const std::function<void(uint32_t)> &Visit) {
        if (Reps.find(V) != V)
          return;
        for (uint32_t To : Copy[V]) {
          uint32_t RT = Reps.find(To);
          if (RT != V)
            Visit(RT);
        }
      });

  for (const std::vector<uint32_t> &Component : Sccs.Members) {
    // Only representative nodes matter; merge multi-node components.
    std::vector<uint32_t> Nodes;
    for (uint32_t V : Component)
      if (Reps.find(V) == V)
        Nodes.push_back(V);
    if (Nodes.size() < 2)
      continue;
    uint32_t R = Nodes[0];
    for (size_t I = 1; I < Nodes.size(); ++I) {
      uint32_t Other = Nodes[I];
      uint32_t Merged = Reps.unite(R, Other);
      uint32_t Losing = Merged == R ? Other : R;
      R = Merged;
      ++Collapsed;
      Pts[R].unionWith(Pts[Losing]);
      Pts[Losing].clear();
      if (Opts.EnableDiffProp)
        Delta[Losing].clear();
      // Adopt the loser's copy edges through the survivor's dedup
      // filter, resolving each target first: an unfiltered splice can
      // duplicate edges R already has and can retain edges that now
      // loop back to R itself, and the loser's dedup entries must not
      // simply vanish or addCopyEdge would re-add those edges later.
      for (uint32_t E : Copy[Losing]) {
        uint32_t RT = Reps.find(E);
        if (RT == R)
          continue;
        if (CopyDedup[R].insert(RT).second)
          Copy[R].push_back(RT);
      }
      Copy[Losing].clear();
      CopyDedup[Losing].clear();
      for (uint32_t Idx : LoadsAt[Losing])
        LoadsAt[R].push_back(Idx);
      LoadsAt[Losing].clear();
      for (uint32_t Idx : StoresAt[Losing])
        StoresAt[R].push_back(Idx);
      StoresAt[Losing].clear();
    }
    // The survivor inherited points-to members and load/store
    // constraints its own processing has never seen: re-queue it, and
    // under difference propagation mark the whole merged set pending
    // (it subsumes every loser's outstanding delta).
    if (Opts.EnableDiffProp)
      Delta[R] = Pts[R];
    WL.push(R);
  }
}

const SparseBitVector &AndersenAnalysis::pointsTo(VarId V) const {
  assert(HasRun && "query before run()");
  const uint32_t *Node = NodeOf.find(V);
  return Node ? Pts[Reps.find(*Node)] : Empty;
}

std::vector<VarId> AndersenAnalysis::pointsToVars(VarId V) const {
  return pointsTo(V).toVector();
}

bool AndersenAnalysis::mayAlias(VarId A, VarId B) const {
  assert(HasRun && "query before run()");
  if (!Prog.var(A).isPointer() || !Prog.var(B).isPointer())
    return false;
  if (A == B)
    return true;
  return pointsTo(A).intersects(pointsTo(B));
}

uint64_t AndersenAnalysis::copyEdgeCount() const {
  uint64_t Total = 0;
  for (const std::vector<uint32_t> &L : Copy)
    Total += L.size();
  return Total;
}

uint64_t AndersenAnalysis::duplicateCopyEdges() const {
  uint64_t Dups = 0;
  std::unordered_set<uint32_t> Seen;
  for (const std::vector<uint32_t> &L : Copy) {
    Seen.clear();
    for (uint32_t T : L)
      if (!Seen.insert(T).second)
        ++Dups;
  }
  return Dups;
}
