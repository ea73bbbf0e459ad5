//===- core/RelevantStatements.cpp - Algorithm 1 --------------------------===//

#include "core/RelevantStatements.h"

#include "analysis/Steensgaard.h"

#include <algorithm>
#include <deque>

using namespace bsaa;
using namespace bsaa::core;
using namespace bsaa::ir;

SliceIndex::SliceIndex(const Program &P,
                       const analysis::SteensgaardAnalysis &Steens) {
  DefsOf.resize(P.numVars());
  StoresByBase.resize(P.numVars());
  StoresByBasePartition.resize(Steens.numPartitions());
  for (LocId L = 0; L < P.numLocs(); ++L) {
    const Location &Loc = P.loc(L);
    switch (Loc.Kind) {
    case StmtKind::Copy:
    case StmtKind::AddrOf:
    case StmtKind::Alloc:
    case StmtKind::Load:
    case StmtKind::Nullify:
      DefsOf[Loc.Lhs].push_back(L);
      break;
    case StmtKind::Store:
      StoresByBase[Loc.Lhs].push_back(L);
      StoresByBasePartition[Steens.partitionOf(Loc.Lhs)].push_back(L);
      break;
    default:
      break;
    }
  }
  PartitionPreds.resize(Steens.numPartitions());
  for (uint32_t Part = 0; Part < Steens.numPartitions(); ++Part) {
    uint32_t Succ = Steens.pointsToPartition(Part);
    if (Succ != analysis::InvalidPartition)
      PartitionPreds[Succ].push_back(Part);
  }
}

namespace {

/// Membership sets for V_P: direct vars and dereferenced vars.
struct RefSet {
  std::vector<uint8_t> Direct;
  std::vector<uint8_t> Deref;
  std::vector<VarId> DirectList;
  std::vector<VarId> DerefList;

  explicit RefSet(uint32_t NumVars)
      : Direct(NumVars, 0), Deref(NumVars, 0) {}

  bool addDirect(VarId V) {
    if (Direct[V])
      return false;
    Direct[V] = 1;
    DirectList.push_back(V);
    return true;
  }
  bool addDeref(VarId V) {
    if (Deref[V])
      return false;
    Deref[V] = 1;
    DerefList.push_back(V);
    return true;
  }
  bool hasDeref(VarId V) const { return Deref[V]; }
};

} // namespace

RelevantSlice bsaa::core::computeRelevantStatements(
    const Program &P, const analysis::SteensgaardAnalysis &Steens,
    const std::vector<VarId> &Members) {
  SliceIndex Index(P, Steens);
  return computeRelevantStatements(P, Steens, Members, Index);
}

RelevantSlice bsaa::core::computeRelevantStatements(
    const Program &P, const analysis::SteensgaardAnalysis &Steens,
    const std::vector<VarId> &Members, const SliceIndex &Index) {
  RefSet VP(P.numVars());
  std::deque<VarId> DirectWL;
  std::deque<VarId> DerefWL;
  // Partitions already in V_P / already ancestor-walked.
  std::vector<uint8_t> PartSeen(Steens.numPartitions(), 0);

  // Forward declarations of the mutually recursive adders.
  std::deque<uint32_t> NewParts;

  auto AddDirect = [&](VarId V) {
    if (!VP.addDirect(V))
      return;
    DirectWL.push_back(V);
    uint32_t Part = Steens.partitionOf(V);
    if (!PartSeen[Part]) {
      PartSeen[Part] = 1;
      NewParts.push_back(Part);
    }
  };
  // Tracking *s means tracking the values of the objects s may point
  // to; direct assignments to those objects (Algorithm 4's "r in
  // PT(s)" case) must be in the slice. For a full Steensgaard
  // partition this is a no-op (the objects are the partition's own
  // members); for Andersen sub-clusters it restores the members the
  // split would otherwise hide.
  std::deque<VarId> PendingDerefTargets;
  auto AddDeref = [&](VarId V) {
    if (!VP.addDeref(V))
      return;
    DerefWL.push_back(V);
    PendingDerefTargets.push_back(V);
  };

  for (VarId V : Members)
    AddDirect(V);

  // Rule (2), event-driven: when a partition pd joins V_P, every store
  // whose base partition is a strict ancestor of pd (or shares pd's
  // collapsed cycle) can affect aliases in pd. Walk the partition
  // graph's predecessor edges from pd; re-reaching pd itself through a
  // cycle covers the paper's cyclic q = *q case.
  std::vector<uint8_t> StoreEligible(Steens.numPartitions(), 0);
  auto MarkAncestors = [&](uint32_t Pd) {
    std::deque<uint32_t> BFS;
    for (uint32_t Pred : Index.PartitionPreds[Pd])
      BFS.push_back(Pred);
    while (!BFS.empty()) {
      uint32_t Cur = BFS.front();
      BFS.pop_front();
      if (StoreEligible[Cur])
        continue;
      StoreEligible[Cur] = 1;
      for (LocId L : Index.StoresByBasePartition[Cur]) {
        const Location &Loc = P.loc(L);
        AddDeref(Loc.Lhs);
        AddDirect(Loc.Lhs);
        AddDirect(Loc.Rhs);
      }
      for (uint32_t Pred : Index.PartitionPreds[Cur])
        BFS.push_back(Pred);
    }
  };

  while (!DirectWL.empty() || !DerefWL.empty() || !NewParts.empty() ||
         !PendingDerefTargets.empty()) {
    if (!PendingDerefTargets.empty()) {
      VarId S = PendingDerefTargets.front();
      PendingDerefTargets.pop_front();
      uint32_t Succ = Steens.pointsToPartition(Steens.partitionOf(S));
      if (Succ != analysis::InvalidPartition)
        for (VarId O : Steens.partitionMembers(Succ))
          AddDirect(O);
      continue;
    }
    if (!NewParts.empty()) {
      uint32_t Pd = NewParts.front();
      NewParts.pop_front();
      MarkAncestors(Pd);
      continue;
    }
    if (!DirectWL.empty()) {
      VarId V = DirectWL.front();
      DirectWL.pop_front();
      // Rule (1): statements assigning v pull in their sources.
      for (LocId L : Index.DefsOf[V]) {
        const Location &Loc = P.loc(L);
        switch (Loc.Kind) {
        case StmtKind::Copy:
          AddDirect(Loc.Rhs);
          break;
        case StmtKind::Load:
          AddDeref(Loc.Rhs);
          AddDirect(Loc.Rhs);
          break;
        default:
          break; // AddrOf / Alloc / Nullify sources are terminal.
        }
      }
      continue;
    }
    VarId S = DerefWL.front();
    DerefWL.pop_front();
    // *s in V_P: stores through s feed it.
    for (LocId L : Index.StoresByBase[S])
      AddDirect(P.loc(L).Rhs);
  }

  // Collect V_P and St_P from the membership lists.
  RelevantSlice Out;
  for (VarId V : VP.DirectList) {
    Out.TrackedRefs.push_back(Ref::direct(V));
    for (LocId L : Index.DefsOf[V])
      Out.Statements.push_back(L);
  }
  for (VarId V : VP.DerefList) {
    Out.TrackedRefs.push_back(Ref::deref(V));
    for (LocId L : Index.StoresByBase[V])
      Out.Statements.push_back(L);
  }
  std::sort(Out.Statements.begin(), Out.Statements.end());
  Out.Statements.erase(
      std::unique(Out.Statements.begin(), Out.Statements.end()),
      Out.Statements.end());
  std::sort(Out.TrackedRefs.begin(), Out.TrackedRefs.end());
  return Out;
}

void bsaa::core::attachRelevantSlice(
    const Program &P, const analysis::SteensgaardAnalysis &Steens,
    Cluster &C) {
  SliceIndex Index(P, Steens);
  attachRelevantSlice(P, Steens, C, Index);
}

void bsaa::core::attachRelevantSlice(
    const Program &P, const analysis::SteensgaardAnalysis &Steens,
    Cluster &C, const SliceIndex &Index) {
  RelevantSlice Slice =
      computeRelevantStatements(P, Steens, C.Members, Index);
  C.TrackedRefs = std::move(Slice.TrackedRefs);
  C.Statements = std::move(Slice.Statements);
}

//===--------------------------------------------------------------------===//
// Content-addressed slice memoization
//===--------------------------------------------------------------------===//

uint64_t bsaa::core::programFingerprint(const Program &P) {
  support::ContentHasher H;
  H.u64(0x50524f4752414d46ull); // "PROGRAMF": domain separation.
  H.u32(P.numVars());
  for (VarId V = 0; V < P.numVars(); ++V) {
    const Variable &Var = P.var(V);
    H.u32(uint32_t(Var.Kind));
    H.u32(uint32_t(Var.Base));
    H.u32(Var.PtrDepth);
    H.u32(Var.Owner);
  }
  H.u32(P.numFuncs());
  for (FuncId F = 0; F < P.numFuncs(); ++F) {
    const Function &Fn = P.func(F);
    H.u32(Fn.Entry);
    H.u32(Fn.Exit);
    H.u64(Fn.Params.size());
    for (VarId V : Fn.Params)
      H.u32(V);
    H.u32(Fn.RetVal);
    H.u32(Fn.FuncObj);
  }
  H.u32(P.numLocs());
  for (LocId L = 0; L < P.numLocs(); ++L) {
    const Location &Loc = P.loc(L);
    H.u32(uint32_t(Loc.Kind));
    H.u32(Loc.Lhs);
    H.u32(Loc.Rhs);
    H.u32(Loc.Owner);
    H.u32(Loc.IndirectTarget);
    H.u64(Loc.Callees.size());
    for (FuncId G : Loc.Callees)
      H.u32(G);
    H.u64(Loc.Succs.size());
    for (LocId S : Loc.Succs)
      H.u32(S);
  }
  H.u32(P.entryFunction());
  return H.digest().Lo;
}

support::Digest
bsaa::core::sliceCacheKey(uint64_t ProgramFingerprint,
                          const std::vector<VarId> &Members) {
  support::ContentHasher H;
  H.u64(0x534c494345'4b4559ull); // "SLICEKEY": domain separation.
  H.u64(ProgramFingerprint);
  H.u64(Members.size());
  for (VarId V : Members)
    H.u32(V);
  return H.digest();
}

void bsaa::core::attachRelevantSlice(
    const Program &P, const analysis::SteensgaardAnalysis &Steens,
    Cluster &C, const SliceIndex &Index, SliceCache *Cache,
    uint64_t ProgramFingerprint) {
  if (!Cache) {
    attachRelevantSlice(P, Steens, C, Index);
    return;
  }
  support::Digest Key = sliceCacheKey(ProgramFingerprint, C.Members);
  if (std::shared_ptr<const RelevantSlice> Hit = Cache->lookup(Key)) {
    C.TrackedRefs = Hit->TrackedRefs;
    C.Statements = Hit->Statements;
    return;
  }
  RelevantSlice Slice =
      computeRelevantStatements(P, Steens, C.Members, Index);
  C.TrackedRefs = Slice.TrackedRefs;
  C.Statements = Slice.Statements;
  uint64_t Bytes = Slice.approxBytes();
  Cache->insert(Key, std::move(Slice), Bytes);
}
