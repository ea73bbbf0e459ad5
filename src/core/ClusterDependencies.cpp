//===- core/ClusterDependencies.cpp - Cluster dependency scopes -----------===//

#include "core/ClusterDependencies.h"

#include "analysis/Steensgaard.h"
#include "support/SparseBitVector.h"

#include <algorithm>
#include <unordered_map>

using namespace bsaa;
using namespace bsaa::core;
using namespace bsaa::ir;

std::vector<FuncId> core::dependentFunctions(const Program &P,
                                             const CallGraph &CG,
                                             const Cluster &C) {
  uint32_t N = P.numFuncs();
  std::vector<uint8_t> InD(N, 0);
  std::vector<FuncId> WL;
  auto Add = [&](FuncId F) {
    if (F != InvalidFunc && F < N && !InD[F]) {
      InD[F] = 1;
      WL.push_back(F);
    }
  };
  // R: where traversals start. Global queries anchor at the entry
  // function; member / tracked-ref owners and slice-statement owners
  // are where update sequences live.
  Add(P.entryFunction());
  for (LocId L : C.Statements)
    Add(P.loc(L).Owner);
  for (VarId V : C.Members)
    Add(P.var(V).Owner);
  for (const Ref &R : C.TrackedRefs)
    if (R.valid())
      Add(P.var(R.Var).Owner);
  // callers*(R): unresolved origins propagate upward through every
  // transitive caller (summary splicing and the FSCI caller walk).
  while (!WL.empty()) {
    FuncId F = WL.back();
    WL.pop_back();
    for (FuncId Caller : CG.callers(F))
      Add(Caller);
  }
  std::vector<FuncId> Out;
  for (FuncId F = 0; F < N; ++F)
    if (InD[F])
      Out.push_back(F);
  return Out;
}

namespace {

support::Digest bodyDigest(const Program &P, FuncId F) {
  support::ContentHasher H;
  const Function &Fn = P.func(F);
  H.u32(F);
  H.u32(Fn.Entry);
  H.u32(Fn.Exit);
  H.u32(Fn.RetVal);
  H.u32(Fn.FuncObj);
  H.u64(Fn.Params.size());
  for (VarId V : Fn.Params)
    H.u32(V);
  H.u64(Fn.Locations.size());
  for (LocId L : Fn.Locations) {
    const Location &Loc = P.loc(L);
    H.u32(L);
    H.u32(uint32_t(Loc.Kind));
    H.u32(Loc.Lhs);
    H.u32(Loc.Rhs);
    H.u32(Loc.IndirectTarget);
    H.u64(Loc.Callees.size());
    for (FuncId G : Loc.Callees)
      H.u32(G);
    H.str(Loc.CondKey);
    H.u64(Loc.CondVars.size());
    for (VarId V : Loc.CondVars)
      H.u32(V);
    H.u64(Loc.SuccArm.size());
    for (uint8_t A : Loc.SuccArm)
      H.u32(A);
    H.u64(Loc.Succs.size());
    for (LocId S : Loc.Succs)
      H.u32(S);
    // Preds are the transpose of Succs across the scope: derived.
  }
  return H.digest();
}

void sortUnique(std::vector<uint32_t> &V) {
  std::sort(V.begin(), V.end());
  V.erase(std::unique(V.begin(), V.end()), V.end());
}

} // namespace

ScopeKeyIndex::ScopeKeyIndex(const Program &P, const CallGraph &CG,
                             const analysis::SteensgaardAnalysis &Steens)
    : P(P), CG(CG), Steens(Steens) {
  uint32_t NF = P.numFuncs();
  BodyDigest.resize(NF);
  FuncParts.resize(NF);
  FuncCallees.resize(NF);
  for (FuncId F = 0; F < NF; ++F) {
    BodyDigest[F] = bodyDigest(P, F);
    // Steensgaard seeds: everything the body and signature name.
    std::vector<uint32_t> &Parts = FuncParts[F];
    auto AddVar = [&](VarId V) {
      if (V != InvalidVar)
        Parts.push_back(Steens.partitionOf(V));
    };
    const Function &Fn = P.func(F);
    for (VarId V : Fn.Params)
      AddVar(V);
    AddVar(Fn.RetVal);
    AddVar(Fn.FuncObj);
    for (LocId L : Fn.Locations) {
      const Location &Loc = P.loc(L);
      AddVar(Loc.Lhs);
      AddVar(Loc.Rhs);
      AddVar(Loc.IndirectTarget);
      for (VarId V : Loc.CondVars)
        AddVar(V);
      if (Loc.Kind == StmtKind::Call)
        FuncCallees[F].insert(FuncCallees[F].end(), Loc.Callees.begin(),
                              Loc.Callees.end());
    }
    sortUnique(Parts);
    sortUnique(FuncCallees[F]);
  }

  // Reachability bottom-up over the call-graph condensation
  // (components are numbered callees-first).
  const SccResult &Sccs = CG.sccs();
  CompReach.resize(Sccs.numComponents());
  for (uint32_t Comp = 0; Comp < Sccs.numComponents(); ++Comp)
    for (uint32_t F : Sccs.Members[Comp]) {
      CompReach[Comp].set(F);
      for (FuncId G : CG.callees(F))
        if (Sccs.Component[G] != Comp)
          CompReach[Comp].unionWith(CompReach[Sccs.Component[G]]);
    }

  // hasPred is a *global* property (anything anywhere pointing into the
  // partition makes stores able to reach it), so it is recorded per
  // partition even though the pointing partition may lie outside a
  // cluster's scope.
  uint32_t NP = Steens.numPartitions();
  std::vector<uint8_t> HasPred(NP, 0);
  for (uint32_t Part = 0; Part < NP; ++Part) {
    uint32_t Succ = Steens.pointsToPartition(Part);
    if (Succ != analysis::InvalidPartition)
      HasPred[Succ] = 1;
  }
  PartDigest.resize(NP);
  PartFirst.resize(NP);
  NodeLeader.resize(NP);
  std::unordered_map<uint32_t, uint32_t> FirstInClass;
  for (uint32_t Part = 0; Part < NP; ++Part) {
    const std::vector<VarId> &Members = Steens.partitionMembers(Part);
    PartFirst[Part] = Members.front();
    support::ContentHasher H;
    H.u32(Steens.depthOfPartition(Part));
    H.boolean(HasPred[Part]);
    H.u64(Members.size());
    // Identity + type record of every member (enumerated as deref
    // candidates), by raw id: a key hit must certify cached VarIds
    // verbatim.
    for (VarId V : Members) {
      const Variable &Var = P.var(V);
      H.u32(V).u32(uint32_t(Var.Kind)).u32(uint32_t(Var.Base));
      H.u32(Var.PtrDepth).u32(Var.Owner);
    }
    // mayAlias is pointee-*cell* equality, strictly finer than sharing
    // a partition. Raw cell ids are meaningless across solver
    // instances, so hash each member's class as the index of its
    // first member. No class spans two partitions (the solver unites
    // variables with equal pointee classes), so these groupings
    // together carry the whole may-alias relation of the scope.
    FirstInClass.clear();
    for (uint32_t I = 0; I < Members.size(); ++I)
      H.u32(FirstInClass.emplace(Steens.pointeeClassOf(Members[I]), I)
                .first->second);
    PartDigest[Part] = H.digest();
  }

  // Partitions share a hierarchy node only on a points-to cycle, and a
  // key's partition set is closed under the successor, so it holds
  // either all of a node's partitions or none: the node's first one in
  // a key's canonical order is always its leader.
  std::vector<uint32_t> LeaderOfNode(NP, analysis::InvalidPartition);
  for (uint32_t Part = 0; Part < NP; ++Part) {
    uint32_t &Leader = LeaderOfNode[Steens.hierarchyNodeOf(Part)];
    if (Leader == analysis::InvalidPartition ||
        PartFirst[Part] < PartFirst[Leader])
      Leader = Part;
  }
  for (uint32_t Part = 0; Part < NP; ++Part)
    NodeLeader[Part] = LeaderOfNode[Steens.hierarchyNodeOf(Part)];
}

support::Digest
ScopeKeyIndex::key(const Cluster &C,
                   const fscs::SummaryEngine::Options &Opts) const {
  support::ContentHasher H;
  // "SCOPEKY3": runs consult the slice's Andersen oracle, so a record
  // written by the Steensgaard-only engine must never replay.
  H.u64(0x53434f50'454b5933ull);

  H.u64(Opts.MaxCondAtoms);
  H.u64(Opts.MaxResultsPerKey);
  H.u64(Opts.StepBudget);
  H.u64(Opts.MaxDerefFanout);

  // Cluster identity, raw.
  H.u64(C.Members.size());
  for (VarId V : C.Members)
    H.u32(V);
  H.u64(C.TrackedRefs.size());
  for (const Ref &R : C.TrackedRefs) {
    H.u32(R.Var);
    H.i64(R.Deref);
  }
  H.u64(C.Statements.size());
  for (LocId L : C.Statements)
    H.u32(L);
  H.u32(P.entryFunction());

  // Full content of the dependency scope D, raw ids throughout.
  std::vector<FuncId> D = dependentFunctions(P, CG, C);
  H.u64(D.size());
  for (FuncId F : D)
    H.u64(BodyDigest[F].Hi).u64(BodyDigest[F].Lo);

  // Descent decisions at call sites: reaching a call in D, the engine
  // asks whether the callee's subtree carries slice statements and
  // which ones (transMod aggregates the slice-local modification info
  // of every slice owner reachable from the callee). The callee bodies
  // themselves may be outside D; what the engine reads from them is
  // exactly the set of reachable slice owners, so hash that set per
  // callee of a call site in D.
  std::vector<FuncId> SliceOwners;
  for (LocId L : C.Statements)
    if (P.loc(L).Owner != InvalidFunc)
      SliceOwners.push_back(P.loc(L).Owner);
  sortUnique(SliceOwners);
  const SccResult &Sccs = CG.sccs();
  for (FuncId F : D)
    for (FuncId G : FuncCallees[F]) {
      const SparseBitVector &Reach = CompReach[Sccs.Component[G]];
      H.u32(G);
      for (FuncId O : SliceOwners)
        if (Reach.test(O))
          H.u32(O);
      H.u64(0xffffffffffffffffull); // End of G's reachable owners.
    }

  // Steensgaard facts the run consults: the partitions of everything
  // D and the cluster name, closed under the points-to successor chain
  // (dereference enumeration walks succ partitions and their member
  // lists).
  constexpr uint32_t Unset = UINT32_MAX;
  std::vector<uint32_t> Pos(Steens.numPartitions(), Unset);
  std::vector<uint32_t> RP;
  auto AddPart = [&](uint32_t Part) {
    if (Part != analysis::InvalidPartition && Pos[Part] == Unset) {
      Pos[Part] = 0;
      RP.push_back(Part);
    }
  };
  for (VarId V : C.Members)
    AddPart(Steens.partitionOf(V));
  for (const Ref &R : C.TrackedRefs)
    if (R.Var != InvalidVar)
      AddPart(Steens.partitionOf(R.Var));
  for (FuncId F : D)
    for (uint32_t Part : FuncParts[F])
      AddPart(Part);
  for (size_t I = 0; I < RP.size(); ++I)
    AddPart(Steens.pointsToPartition(RP[I]));

  // Partition ids and hierarchy-node ids are solver numbering
  // artifacts: an edit that changes the union structure *anywhere*
  // renumbers them globally, even when the partitions relevant to this
  // cluster are untouched. The engine only ever consumes them through
  // equality tests (mayAlias, sameHierarchyNode) and the numeric depth,
  // so hash a canonical form instead: order the relevant partitions by
  // smallest member (members are raw, stable VarIds) and refer to
  // partitions and hierarchy nodes by first-occurrence position (a
  // node's first occurrence is its leader's, see the constructor).
  std::sort(RP.begin(), RP.end(), [&](uint32_t A, uint32_t B) {
    return PartFirst[A] < PartFirst[B];
  });
  for (uint32_t I = 0; I < RP.size(); ++I)
    Pos[RP[I]] = I;
  H.u64(RP.size());
  for (uint32_t I = 0; I < RP.size(); ++I) {
    uint32_t Part = RP[I];
    H.u64(PartDigest[Part].Hi).u64(PartDigest[Part].Lo);
    H.u32(Pos[NodeLeader[Part]]);
    uint32_t Succ = Steens.pointsToPartition(Part);
    // Succ is in RP by closure; InvalidPartition maps to a sentinel.
    H.u32(Succ == analysis::InvalidPartition ? 0xffffffffu : Pos[Succ]);
  }
  return H.digest();
}
