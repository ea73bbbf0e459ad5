//===- fscs/SummaryEngine.cpp - Algorithms 4 + 5 --------------------------===//

#include "fscs/SummaryEngine.h"

#include "analysis/Steensgaard.h"

#include <algorithm>
#include <cassert>

using namespace bsaa;
using namespace bsaa::fscs;
using namespace bsaa::ir;

namespace {

uint64_t refHash(Ref R) {
  return (uint64_t(R.Var) << 2) | uint64_t(uint8_t(R.Deref + 1));
}

/// ResultHashes entry of the result (Origin, Cond).
uint64_t resultHash(Ref Origin, const Condition &Cond) {
  return refHash(Origin) * 0x100000001b3ull ^ Cond.hash();
}

uint64_t tupleHash(LocId M, Ref Q, const Condition &Cond) {
  uint64_t H = Cond.hash();
  H ^= (uint64_t(M) << 32) ^ refHash(Q);
  H *= 0x9e3779b97f4a7c15ull;
  return H;
}

const Condition TrueCondition;

ConstraintAtom atom(LocId Loc, ConstraintKind Kind, VarId A, VarId B) {
  return ConstraintAtom{Loc, Kind, A, B};
}

} // namespace

SummaryEngine::SummaryEngine(const Program &P, const CallGraph &CG,
                             const analysis::SteensgaardAnalysis &Steens,
                             const core::Cluster &C)
    : SummaryEngine(P, CG, Steens, C, Options()) {}

SummaryEngine::SummaryEngine(const Program &P, const CallGraph &CG,
                             const analysis::SteensgaardAnalysis &Steens,
                             const core::Cluster &C, Options Opts)
    : Prog(P), CG(CG), Steens(Steens), Clu(C), Opts(Opts) {
  InSlice.assign(P.numLocs(), 0);
  for (LocId L : C.Statements)
    InSlice[L] = 1;
  buildModifyInfo();
}

//===--------------------------------------------------------------------===//
// Per-function modification info
//===--------------------------------------------------------------------===//

void SummaryEngine::buildModifyInfo() {
  // Slice-local info only; the transitive closure is computed lazily
  // per call-graph SCC component in transMod().
  for (LocId L : Clu.Statements) {
    const Location &Loc = Prog.loc(L);
    LocalModInfo &Info = LocalMod[Loc.Owner];
    if (Loc.Kind == StmtKind::Store)
      Info.Store = true;
    else
      Info.Assigned.set(Loc.Lhs);
  }

  // Partitions with a hierarchy predecessor can be written through a
  // store; top-level partitions cannot.
  PartitionHasPred.assign(Steens.numPartitions(), 0);
  for (uint32_t Part = 0; Part < Steens.numPartitions(); ++Part) {
    uint32_t Succ = Steens.pointsToPartition(Part);
    if (Succ != analysis::InvalidPartition)
      PartitionHasPred[Succ] = 1;
  }
}

const SummaryEngine::TransModInfo &
SummaryEngine::transMod(uint32_t Component) {
  const SccResult &Sccs = CG.sccs();
  if (TransMod.empty())
    TransMod.resize(Sccs.Members.size());
  TransModInfo &Info = TransMod[Component];
  if (Info.Known)
    return Info;
  // Mark first so cyclic component references terminate: intra-component
  // callee edges contribute the component's own local info, which is
  // accumulated below anyway.
  Info.Known = true;
  for (FuncId F : Sccs.Members[Component]) {
    auto LIt = LocalMod.find(F);
    if (LIt != LocalMod.end()) {
      Info.Assigned.unionWith(LIt->second.Assigned);
      Info.Store |= LIt->second.Store;
      Info.Relevant = true;
    }
    for (FuncId G : CG.callees(F)) {
      uint32_t GC = Sccs.Component[G];
      if (GC == Component)
        continue;
      // Callee components have smaller indices (reverse topological
      // numbering), so this recursion is over a DAG.
      const TransModInfo &Sub = transMod(GC);
      Info.Assigned.unionWith(Sub.Assigned);
      Info.Store |= Sub.Store;
      Info.Relevant |= Sub.Relevant;
    }
  }
  return Info;
}

bool SummaryEngine::mayModify(FuncId G, Ref Q) {
  const TransModInfo &Info = transMod(CG.sccs().Component[G]);
  if (Q.Deref > 0)
    return Info.Relevant;
  if (Info.Assigned.test(Q.Var))
    return true;
  // A store can only modify Q.Var if something points at its partition.
  return Info.Store && PartitionHasPred[Steens.partitionOf(Q.Var)];
}

//===--------------------------------------------------------------------===//
// Keyed state
//===--------------------------------------------------------------------===//

SummaryEngine::KeyId SummaryEngine::ensureKey(LocId Loc, Ref R) {
  assert(Loc < Prog.numLocs() && R.Deref >= -1 && R.Deref <= 1);
  const uint64_t IndexKey = State::indexKey(Loc, R.Var);
  if (const State::KeySlots *Slots = St.KeyIndex.find(IndexKey))
    if (Slots->ByDeref[R.Deref + 1] != State::NoKey)
      return Slots->ByDeref[R.Deref + 1];
  KeyId K = static_cast<KeyId>(St.Keys.size());
  St.Keys.emplace_back();
  KeyActive.push_back(0);
  FeedQueued.push_back(0);
  St.Keys[K].AnchorLoc = Loc;
  St.Keys[K].R = R;
  St.KeyIndex[IndexKey].ByDeref[R.Deref + 1] = K;
  ++Version;

  if (R.Deref < 0) {
    // &o is already an origin.
    addResult(K, R, Condition());
    return K;
  }
  enqueue(K, Loc, R, Condition());
  return K;
}

void SummaryEngine::enqueue(KeyId K, LocId M, Ref Q, const Condition &Cond) {
  if (St.BudgetHit)
    return;
  if (Cond.isFalse())
    return;
  KeyState &KS = St.Keys[K];
  if (!KS.Seen.insert(tupleHash(M, Q, Cond)))
    return;
  KS.WL.emplace_back(M, Q, Cond);
  if (!KeyActive[K]) {
    KeyActive[K] = 1;
    ActiveKeys.push_back(K);
  }
}

void SummaryEngine::addResult(KeyId K, Ref Origin, const Condition &Cond) {
  if (Cond.isFalse())
    return;
  KeyState &KS = St.Keys[K];
  // Beyond the per-key cap, collapse to an unconditional origin: sound
  // widening that keeps recursive SCC splices from cross-multiplying
  // condition variants without bound.
  const Condition &Effective =
      KS.Results.size() >= Opts.MaxResultsPerKey ? TrueCondition : Cond;
  uint64_t H = resultHash(Origin, Effective);
  // Most candidates repeat a kept tuple, so the hash is checked first.
  // satisfiable() has no side effects, and on a known hash checking it
  // first would end in the same return: the order changes no outcome.
  if (KS.ResultHashes.contains(H))
    return;
  // Cheap memo-only pruning of conditions already known unsatisfiable.
  if (!satisfiable(Cond))
    return;
  KS.ResultHashes.insert(H);
  KS.Results.emplace_back(KS.R, KS.AnchorLoc, Origin, Effective);
  ++Version;
  // Queue the key for waiter feeding; doing it inline would recurse
  // through result -> splice -> result chains and overflow the stack on
  // deep explorations.
  if (!FeedQueued[K]) {
    FeedQueued[K] = 1;
    PendingFeeds.push_back(K);
  }
}

void SummaryEngine::feedWaiter(KeyId Provider, size_t WaiterIdx) {
  // addResult() can grow the provider's own Results (a recursive key
  // feeds itself), so the references below are re-taken every round and
  // not used past the merge.
  for (;;) {
    KeyState &PS = St.Keys[Provider];
    Waiter &W = PS.Waiters[WaiterIdx];
    if (W.Consumed >= PS.Results.size())
      return;
    const SummaryTuple &R = PS.Results[W.Consumed++];
    const KeyId Dependent = W.Dependent;
    const LocId CallLoc = W.CallLoc;
    const Ref Origin = R.Origin;
    const bool Resolved = R.isResolved();
    // At the cap, addResult() records (Origin, true) whatever the merged
    // condition is, and a false merge records nothing: when the dependent
    // holds that tuple already, the merge cannot change anything.
    if (Resolved) {
      const KeyState &DS = St.Keys[Dependent];
      if (DS.Results.size() >= Opts.MaxResultsPerKey &&
          DS.ResultHashes.contains(resultHash(Origin, TrueCondition)))
        continue;
    }
    Condition Merged = W.CondAtCall.conjoinAll(R.Cond, Opts.MaxCondAtoms);
    if (Merged.isFalse())
      continue;
    if (Resolved) {
      addResult(Dependent, Origin, Merged);
    } else {
      // Continue the caller-side traversal above the call with the
      // callee's entry ref substituted (the splice step).
      propagate(Dependent, CallLoc, Origin, Merged);
    }
  }
}

bool SummaryEngine::isInteresting(LocId L) {
  if (InterestingCache.empty())
    InterestingCache.assign(Prog.numLocs(), 0);
  if (InterestingCache[L])
    return InterestingCache[L] == 2;
  const Location &Loc = Prog.loc(L);
  bool Result = false;
  if (InSlice[L]) {
    Result = true;
  } else if (L == Prog.func(Loc.Owner).Entry) {
    Result = true;
  } else if (Loc.Kind == StmtKind::Call) {
    for (FuncId G : Loc.Callees) {
      if (transMod(CG.sccs().Component[G]).Relevant) {
        Result = true;
        break;
      }
    }
  }
  InterestingCache[L] = Result ? 2 : 1;
  return Result;
}

const std::vector<LocId> &SummaryEngine::interestingPreds(LocId L) {
  if (SkipPredKnown.empty()) {
    SkipPredKnown.assign(Prog.numLocs(), 0);
    SkipPredCache.resize(Prog.numLocs());
  }
  if (SkipPredKnown[L])
    return SkipPredCache[L];
  // BFS backwards through skip locations, stopping at interesting ones.
  std::vector<LocId> Out;
  std::vector<LocId> Stack(Prog.loc(L).Preds.begin(),
                           Prog.loc(L).Preds.end());
  U64HashSet Visited;
  for (LocId P : Stack)
    Visited.insert(P);
  while (!Stack.empty()) {
    LocId P = Stack.back();
    Stack.pop_back();
    if (isInteresting(P)) {
      Out.push_back(P);
      continue;
    }
    for (LocId PP : Prog.loc(P).Preds)
      if (Visited.insert(PP))
        Stack.push_back(PP);
  }
  SkipPredKnown[L] = 1;
  SkipPredCache[L] = std::move(Out);
  return SkipPredCache[L];
}

void SummaryEngine::propagate(KeyId K, LocId M, Ref Q,
                              const Condition &Cond) {
  if (Cond.isFalse())
    return;
  const Location &Loc = Prog.loc(M);
  const Function &Fn = Prog.func(Loc.Owner);
  if (M == Fn.Entry) {
    addResult(K, Q, Cond);
    return;
  }
  for (LocId P : interestingPreds(M))
    enqueue(K, P, Q, Cond);
}

void SummaryEngine::flagBudgetHit() {
  if (!St.BudgetHit) {
    St.BudgetHit = true;
    ++Version;
  }
}

void SummaryEngine::flagApproximated() {
  if (!St.Approximated) {
    St.Approximated = true;
    ++Version;
  }
}

void SummaryEngine::drain() {
  while (!ActiveKeys.empty() || !PendingFeeds.empty()) {
    if (!PendingFeeds.empty()) {
      KeyId K = PendingFeeds.front();
      PendingFeeds.pop_front();
      FeedQueued[K] = 0;
      for (size_t I = 0; I < St.Keys[K].Waiters.size(); ++I)
        feedWaiter(K, I);
      continue;
    }
    KeyId K = ActiveKeys.front();
    ActiveKeys.pop_front();
    KeyActive[K] = 0;
    while (!St.Keys[K].WL.empty()) {
      if (Opts.StepBudget && St.Steps >= Opts.StepBudget) {
        flagBudgetHit();
        return;
      }
      TraversalTuple T = std::move(St.Keys[K].WL.front());
      St.Keys[K].WL.pop_front();
      ++St.Steps;
      processTuple(K, T);
    }
  }
}

void SummaryEngine::processTuple(KeyId K, const TraversalTuple &T) {
  const Location &Loc = Prog.loc(T.M);
  if (Loc.Kind == StmtKind::Call) {
    handleCall(K, T);
    return;
  }
  OutcomeBuf.clear();
  transfer(T.M, T.Q, T.Cond, OutcomeBuf);
  for (const Outcome &O : OutcomeBuf) {
    if (O.NewCond.isFalse())
      continue;
    switch (O.Kind) {
    case OutcomeKind::Resolve:
      addResult(K, O.NewQ, O.NewCond);
      break;
    case OutcomeKind::Kill:
      break;
    case OutcomeKind::Continue:
      propagate(K, T.M, O.NewQ, O.NewCond);
      break;
    }
  }
}

void SummaryEngine::handleCall(KeyId K, const TraversalTuple &T) {
  const Location &Loc = Prog.loc(T.M);
  bool AnyCallee = false;
  for (FuncId G : Loc.Callees) {
    AnyCallee = true;
    if (!mayModify(G, T.Q)) {
      // Executing G has no effect on the tracked ref: jump straight
      // over the call (Algorithm 5 line 17).
      propagate(K, T.M, T.Q, T.Cond);
      continue;
    }
    // Demand G's exit-anchored summary for the tracked ref and splice
    // its (current and future) results.
    KeyId Provider = ensureKey(Prog.func(G).Exit, T.Q);
    uint64_t WH = (uint64_t(K) << 32) ^ (uint64_t(T.M) * 0x9e3779b9) ^
                  T.Cond.hash() ^ Provider;
    if (St.Keys[Provider].WaiterHashes.insert(WH)) {
      St.Keys[Provider].Waiters.push_back(Waiter{K, T.M, T.Cond, 0});
      feedWaiter(Provider, St.Keys[Provider].Waiters.size() - 1);
    }
  }
  if (!AnyCallee) {
    // Unresolvable indirect call: treat as a no-op on aliases.
    propagate(K, T.M, T.Q, T.Cond);
  }
}

//===--------------------------------------------------------------------===//
// Transfer function (Algorithm 4)
//===--------------------------------------------------------------------===//

SummaryEngine::Outcome
SummaryEngine::writtenValue(const Location &Loc, const Condition &Cond) {
  switch (Loc.Kind) {
  case StmtKind::Copy:
  case StmtKind::Store:
    return Outcome{OutcomeKind::Continue, Ref::direct(Loc.Rhs), Cond};
  case StmtKind::Load:
    return Outcome{OutcomeKind::Continue, Ref::deref(Loc.Rhs), Cond};
  case StmtKind::AddrOf:
  case StmtKind::Alloc:
    return Outcome{OutcomeKind::Resolve, Ref::addrOf(Loc.Rhs), Cond};
  case StmtKind::Nullify:
    return Outcome{OutcomeKind::Kill, Ref(), Cond};
  default:
    break;
  }
  return Outcome{OutcomeKind::Continue, Ref(), Cond};
}

void SummaryEngine::transfer(LocId M, Ref Q, const Condition &Cond,
                             std::vector<Outcome> &Out) {
  const Location &Loc = Prog.loc(M);
  if (!InSlice[M] || !Loc.isPointerAssign()) {
    // Everything outside St_P is a skip (the paper's Prog_Q).
    Out.push_back(Outcome{OutcomeKind::Continue, Q, Cond});
    return;
  }

  if (Loc.Kind == StmtKind::Store) {
    VarId U = Loc.Lhs;
    if (Q.Deref == 0) {
      // Tracking variable v; *u = t overwrites v iff u points to v.
      VarId V = Q.Var;
      bool Definite = false;
      if (!mayPointTo(U, V, M, Definite)) {
        Out.push_back(Outcome{OutcomeKind::Continue, Q, Cond});
        return;
      }
      Out.push_back(Outcome{
          OutcomeKind::Continue, Ref::direct(Loc.Rhs),
          Cond.conjoin(atom(M, ConstraintKind::PointsTo, U, V),
                       Opts.MaxCondAtoms)});
      if (!Definite)
        Out.push_back(Outcome{
            OutcomeKind::Continue, Q,
            Cond.conjoin(atom(M, ConstraintKind::NotPointsTo, U, V),
                         Opts.MaxCondAtoms)});
      return;
    }
    // Tracking *s.
    VarId S = Q.Var;
    if (U == S) {
      // *s = t assigns exactly the tracked object.
      Out.push_back(
          Outcome{OutcomeKind::Continue, Ref::direct(Loc.Rhs), Cond});
      return;
    }
    if (!mayAliasAt(U, S, M)) {
      Out.push_back(Outcome{OutcomeKind::Continue, Q, Cond});
      return;
    }
    Out.push_back(Outcome{
        OutcomeKind::Continue, Ref::direct(Loc.Rhs),
        Cond.conjoin(atom(M, ConstraintKind::SameObject, U, S),
                     Opts.MaxCondAtoms)});
    Out.push_back(Outcome{
        OutcomeKind::Continue, Q,
        Cond.conjoin(atom(M, ConstraintKind::NotSameObject, U, S),
                     Opts.MaxCondAtoms)});
    return;
  }

  // Direct assignment r = <value>.
  VarId R = Loc.Lhs;
  if (Q.Deref == 0) {
    if (Q.Var != R) {
      // A different variable: no effect.
      Out.push_back(Outcome{OutcomeKind::Continue, Q, Cond});
      return;
    }
    Out.push_back(writtenValue(Loc, Cond));
    return;
  }

  // Tracking *s.
  VarId S = Q.Var;
  if (R == S) {
    // The base pointer itself is reassigned: rewrite *s through the
    // new value of s.
    switch (Loc.Kind) {
    case StmtKind::Copy:
      // s = t: *s was *t.
      Out.push_back(
          Outcome{OutcomeKind::Continue, Ref::deref(Loc.Rhs), Cond});
      return;
    case StmtKind::AddrOf:
    case StmtKind::Alloc:
      // s = &o: *s is the value of o.
      Out.push_back(
          Outcome{OutcomeKind::Continue, Ref::direct(Loc.Rhs), Cond});
      return;
    case StmtKind::Nullify:
      // s = NULL: *s is undefined before this point... rather, after;
      // the tracked chain dies here.
      Out.push_back(Outcome{OutcomeKind::Kill, Ref(), Cond});
      return;
    case StmtKind::Load: {
      // s = *t: *s is *(*t). Resolve the inner dereference through the
      // FSCI points-to set of t (known: enumerate; unknown: enumerate
      // the Steensgaard pointee partition with constraints).
      VarId TVar = Loc.Rhs;
      const SparseBitVector *Pts = fsciIfKnown(TVar, M);
      std::vector<VarId> &Candidates = CandidateBuf;
      Candidates.clear();
      if (Pts) {
        Pts->forEach([&](uint32_t O) { Candidates.push_back(O); });
      } else {
        uint32_t Succ = Steens.pointsToPartition(Steens.partitionOf(TVar));
        if (Succ != analysis::InvalidPartition)
          Candidates = Steens.partitionMembers(Succ);
      }
      if (Candidates.size() > Opts.MaxDerefFanout) {
        flagApproximated();
        Candidates.resize(Opts.MaxDerefFanout);
      }
      for (VarId O : Candidates) {
        Out.push_back(Outcome{
            OutcomeKind::Continue, Ref::deref(O),
            Cond.conjoin(atom(M, ConstraintKind::PointsTo, TVar, O),
                         Opts.MaxCondAtoms)});
      }
      return;
    }
    default:
      break;
    }
    Out.push_back(Outcome{OutcomeKind::Continue, Q, Cond});
    return;
  }

  // r may be the object s points to.
  bool Definite = false;
  if (!mayPointTo(S, R, M, Definite)) {
    Out.push_back(Outcome{OutcomeKind::Continue, Q, Cond});
    return;
  }
  Outcome Written = writtenValue(Loc, Cond);
  Written.NewCond = Cond.conjoin(atom(M, ConstraintKind::PointsTo, S, R),
                                 Opts.MaxCondAtoms);
  Out.push_back(Written);
  if (!Definite)
    Out.push_back(Outcome{
        OutcomeKind::Continue, Q,
        Cond.conjoin(atom(M, ConstraintKind::NotPointsTo, S, R),
                     Opts.MaxCondAtoms)});
}

//===--------------------------------------------------------------------===//
// Points-to oracles
//===--------------------------------------------------------------------===//

bool SummaryEngine::mayPointTo(VarId U, VarId V, LocId M, bool &Definite) {
  Definite = false;
  // Steensgaard pre-filter: U can only point into its partition's
  // (collapsed) successor node.
  uint32_t PartU = Steens.partitionOf(U);
  uint32_t Succ = Steens.pointsToPartition(PartU);
  if (Succ == analysis::InvalidPartition)
    return false;
  if (Steens.hierarchyNodeOf(Succ) !=
      Steens.hierarchyNodeOf(Steens.partitionOf(V)))
    return false;
  if (const SparseBitVector *Pts = fsciIfKnown(U, M)) {
    if (!Pts->test(V))
      return false;
    Definite = Pts->count() == 1;
    return true;
  }
  return true; // Unknown: branch with constraints.
}

bool SummaryEngine::mayAliasAt(VarId U, VarId S, LocId M) {
  if (!Steens.mayAlias(U, S) && U != S)
    return false;
  const SparseBitVector *PU = fsciIfKnown(U, M);
  const SparseBitVector *PS = fsciIfKnown(S, M);
  if (PU && PS)
    return PU->intersects(*PS);
  return true;
}

const SparseBitVector *SummaryEngine::fsciIfKnown(VarId V,
                                                  LocId Loc) const {
  return St.FsciMemo.find(State::fsciKey(V, Loc));
}

bool SummaryEngine::satisfiable(const Condition &Cond) {
  if (Cond.isFalse())
    return false;
  for (const ConstraintAtom &A : Cond.atoms()) {
    const SparseBitVector *PA = fsciIfKnown(A.A, A.Loc);
    switch (A.Kind) {
    case ConstraintKind::PointsTo:
      if (PA && !PA->test(A.B))
        return false;
      break;
    case ConstraintKind::NotPointsTo:
      if (PA && PA->count() == 1 && PA->test(A.B))
        return false;
      break;
    case ConstraintKind::SameObject: {
      const SparseBitVector *PB = fsciIfKnown(A.B, A.Loc);
      if (PA && PB && !PA->intersects(*PB))
        return false;
      break;
    }
    case ConstraintKind::NotSameObject: {
      const SparseBitVector *PB = fsciIfKnown(A.B, A.Loc);
      if (PA && PB && PA->count() == 1 && PB->count() == 1 &&
          *PA == *PB)
        return false;
      break;
    }
    }
  }
  return true;
}

//===--------------------------------------------------------------------===//
// Public queries
//===--------------------------------------------------------------------===//

std::vector<SummaryTuple> SummaryEngine::summaryAt(LocId AnchorLoc,
                                                   Ref R) {
  KeyId K = ensureKey(AnchorLoc, R);
  drain();
  return St.Keys[K].Results;
}

std::vector<SummaryTuple> SummaryEngine::originsBefore(LocId Loc, Ref R) {
  const Location &L = Prog.loc(Loc);
  const Function &Fn = Prog.func(L.Owner);
  std::vector<SummaryTuple> Out;
  if (Loc == Fn.Entry) {
    SummaryTuple T;
    T.Anchor = R;
    T.AnchorLoc = Loc;
    T.Origin = R;
    Out.push_back(std::move(T));
    return Out;
  }
  U64HashSet Seen;
  for (LocId P : L.Preds) {
    KeyId K = ensureKey(P, R);
    drain();
    for (const SummaryTuple &T : St.Keys[K].Results)
      if (Seen.insert(resultHash(T.Origin, T.Cond)))
        Out.push_back(T);
  }
  return Out;
}

const SparseBitVector &SummaryEngine::fsciPointsTo(VarId V, LocId Loc) {
  const uint64_t MemoKey = State::fsciKey(V, Loc);
  if (const SparseBitVector *Known = St.FsciMemo.find(MemoKey))
    return *Known;
  SparseBitVector Objects = walkOrigins(V, Loc);
  // Inserted only now: satisfiable() in the walk must not see a partial
  // set.
  SparseBitVector &Memo = St.FsciMemo[MemoKey];
  Memo = std::move(Objects);
  ++Version;
  return Memo;
}

SparseBitVector SummaryEngine::walkOrigins(VarId V, LocId Loc) {
  SparseBitVector Objects;
  U64HashSet Visited;
  VectorFifo<std::pair<FuncId, Ref>> Queue;

  auto Handle = [&](FuncId Owner, const std::vector<SummaryTuple> &Tuples) {
    for (const SummaryTuple &T : Tuples) {
      if (!satisfiable(T.Cond))
        continue;
      if (T.isResolved()) {
        Objects.set(T.Origin.Var);
        continue;
      }
      uint64_t H = (uint64_t(Owner) << 34) ^ refHash(T.Origin);
      if (Visited.insert(H))
        Queue.push_back({Owner, T.Origin});
    }
  };

  Handle(Prog.loc(Loc).Owner, originsBefore(Loc, Ref::direct(V)));

  // Context-insensitive closure: an unresolved ref at a function's
  // entry takes its value from every call site of every caller
  // (Algorithm 3's backward frontier propagation).
  while (!Queue.empty()) {
    auto [F, W] = Queue.front();
    Queue.pop_front();
    for (auto [Caller, Site] : CG.callSitesOf(F))
      Handle(Caller, originsBefore(Site, W));
  }
  return Objects;
}

uint64_t SummaryEngine::numSummaryTuples() const {
  uint64_t N = 0;
  for (const KeyState &KS : St.Keys)
    N += KS.Results.size();
  return N;
}

SummaryEngine::EngineStats SummaryEngine::stats() const {
  EngineStats S;
  S.Steps = St.Steps;
  S.SummaryTuples = numSummaryTuples();
  S.Keys = St.Keys.size();
  S.BudgetHit = St.BudgetHit;
  S.Approximated = St.Approximated;
  return S;
}

void SummaryEngine::accumulateGlobalStats(Statistics &Global) const {
  accumulateGlobalStats(stats(), Global);
}

void SummaryEngine::accumulateGlobalStats(const EngineStats &S,
                                          Statistics &Global) {
  Global.add("fscs.steps", S.Steps);
  Global.add("fscs.summary-tuples", S.SummaryTuples);
  Global.add("fscs.keys", S.Keys);
  Global.add("fscs.engines", 1);
  if (S.BudgetHit)
    Global.add("fscs.budget-hits", 1);
  if (S.Approximated)
    Global.add("fscs.approximations", 1);
}

//===--------------------------------------------------------------------===//
// Memoized-state seam
//===--------------------------------------------------------------------===//

uint64_t SummaryEngine::State::approxBytes() const {
  uint64_t N = sizeof(State);
  for (const KeyState &KS : Keys) {
    N += sizeof(KeyState) + KS.Results.size() * sizeof(SummaryTuple) +
         KS.WaiterHashes.capacity() * sizeof(uint64_t);
    for (const SummaryTuple &T : KS.Results)
      N += T.Cond.heapBytes();
  }
  N += KeyIndex.slotBytes() + FsciMemo.slotBytes();
  FsciMemo.forEach([&N](uint64_t, const SparseBitVector &Bits) {
    N += Bits.approxBytes();
  });
  return N;
}

bool SummaryEngine::State::rebuildKeyIndex() {
  KeyIndex = U64FlatMap<KeySlots>();
  for (KeyId K = 0; K < Keys.size(); ++K) {
    const uint64_t IndexKey = indexKey(Keys[K].AnchorLoc, Keys[K].R.Var);
    const int Slot = Keys[K].R.Deref + 1;
    if (IndexKey == U64FlatMap<KeySlots>::EmptyKey || Slot < 0 || Slot > 3)
      return false;
    KeyId &Entry = KeyIndex[IndexKey].ByDeref[Slot];
    if (Entry != NoKey)
      return false;
    Entry = K;
  }
  return true;
}

SummaryEngine::State SummaryEngine::exportState() const {
  assert(!stats().flagged() && "export of a flagged run");
  assert(PendingFeeds.empty() && "export after an interrupted drain");
  // Field by field: copying St whole and clearing the dead sections
  // afterwards would pay for the copy it throws away.
  State Out;
  Out.Keys.resize(St.Keys.size());
  for (size_t K = 0; K < St.Keys.size(); ++K) {
    const KeyState &From = St.Keys[K];
    KeyState &To = Out.Keys[K];
    To.AnchorLoc = From.AnchorLoc;
    To.R = From.R;
    To.Results = From.Results;
    To.WaiterHashes = From.WaiterHashes;
  }
  Out.KeyIndex = St.KeyIndex;
  Out.FsciMemo = St.FsciMemo;
  Out.Steps = St.Steps;
  return Out;
}

void SummaryEngine::importState(State S) {
  St = std::move(S);
  ++Version;
  // An imported state is a fixpoint for every key it holds: no key is
  // active and no feed is pending.
  ActiveKeys.clear();
  PendingFeeds.clear();
  KeyActive.assign(St.Keys.size(), 0);
  FeedQueued.assign(St.Keys.size(), 0);
}
