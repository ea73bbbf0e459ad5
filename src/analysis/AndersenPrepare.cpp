//===- analysis/AndersenPrepare.cpp - Offline constraint collapsing -------===//

#include "analysis/AndersenPrepare.h"

#include <algorithm>
#include <unordered_map>

using namespace bsaa;
using namespace bsaa::analysis;
using namespace bsaa::ir;

namespace {

/// Offline node ids: VAR(v) = v, REF(v) = NumVars + v. The pass runs
/// once per solve over a graph twice the variable universe, so the
/// representation is a flat CSR and the SCC pass below is a bespoke
/// iterative Tarjan -- the generic support/Scc callback interface costs
/// an indirect call per edge, which dominated solve time on the big
/// Table-1 entries.
struct OfflineGraph {
  uint32_t NumVars = 0;
  uint32_t NumNodes = 0;
  /// CSR of flow predecessors per node (edge source -> this node).
  std::vector<uint32_t> PredOffsets;
  std::vector<uint32_t> Preds;
  /// ADR labels attached to VAR nodes by x = &o constraints.
  std::vector<std::vector<uint32_t>> AddrLabels;
  /// VAR(v) had its address taken (o in some x = &o).
  std::vector<uint8_t> Taken;
  /// REF(v) was materialized (v is dereferenced by a load or store).
  std::vector<uint8_t> HasRef;

  uint32_t refNode(uint32_t V) const { return NumVars + V; }
  bool isRefNode(uint32_t N) const { return N >= NumVars; }
};

/// FNV-1a over a label vector; collisions are resolved by the map's
/// key equality, so hashing cannot cost exactness.
struct LabelSetHash {
  size_t operator()(const std::vector<uint32_t> &V) const {
    uint64_t H = 0xcbf29ce484222325ull;
    for (uint32_t X : V) {
      H ^= X;
      H *= 0x100000001b3ull;
    }
    return static_cast<size_t>(H);
  }
};

/// Iterative Tarjan over the CSR graph. Components are numbered in
/// completion order, which for Tarjan is reverse topological order of
/// the condensation: an edge a -> b (across components) implies
/// Comp[a] > Comp[b]. The offline pass feeds *predecessor* edges as
/// successors, so increasing component order visits every node after
/// all its flow inputs -- the topological order hash value numbering
/// needs.
uint32_t tarjanSccs(const OfflineGraph &G, std::vector<uint32_t> &Comp) {
  uint32_t N = G.NumNodes;
  constexpr uint32_t Unvisited = UINT32_MAX;
  std::vector<uint32_t> Index(N, Unvisited), Low(N, 0);
  std::vector<uint8_t> OnStack(N, 0);
  std::vector<uint32_t> Stack;
  struct Frame {
    uint32_t Node;
    uint32_t Edge;
  };
  std::vector<Frame> Frames;
  Comp.assign(N, 0);
  uint32_t NextIndex = 0, NextComp = 0;

  for (uint32_t Root = 0; Root < N; ++Root) {
    if (Index[Root] != Unvisited)
      continue;
    Index[Root] = Low[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = 1;
    Frames.push_back({Root, G.PredOffsets[Root]});
    while (!Frames.empty()) {
      Frame &F = Frames.back();
      if (F.Edge < G.PredOffsets[F.Node + 1]) {
        uint32_t W = G.Preds[F.Edge++];
        if (Index[W] == Unvisited) {
          Index[W] = Low[W] = NextIndex++;
          Stack.push_back(W);
          OnStack[W] = 1;
          Frames.push_back({W, G.PredOffsets[W]});
        } else if (OnStack[W] && Index[W] < Low[F.Node]) {
          Low[F.Node] = Index[W];
        }
        continue;
      }
      uint32_t V = F.Node;
      Frames.pop_back();
      if (!Frames.empty() && Low[V] < Low[Frames.back().Node])
        Low[Frames.back().Node] = Low[V];
      if (Low[V] == Index[V]) {
        while (true) {
          uint32_t W = Stack.back();
          Stack.pop_back();
          OnStack[W] = 0;
          Comp[W] = NextComp;
          if (W == V)
            break;
        }
        ++NextComp;
      }
    }
  }
  return NextComp;
}

} // namespace

PrepareStats
analysis::prepareAndersen(uint32_t NumVars,
                          const std::vector<AndersenConstraint> &Constraints,
                          UnionFind &Reps) {
  PrepareStats Stats;
  uint32_t N = NumVars;
  Stats.VarNodes = N;
  if (N == 0)
    return Stats;

  OfflineGraph G;
  G.NumVars = N;
  G.NumNodes = 2u * N;
  G.AddrLabels.resize(N);
  G.Taken.assign(N, 0);
  G.HasRef.assign(N, 0);

  // Label 0 is reserved for "provably empty points-to set".
  uint32_t NextLabel = 1;
  // One ADR label per address-taken object, assigned on first sight.
  std::vector<uint32_t> ObjLabel(N, 0);

  // Two passes over the constraints: count predecessor degrees, then
  // fill the CSR.
  std::vector<uint32_t> Degree(G.NumNodes + 1, 0);
  for (const AndersenConstraint &C : Constraints) {
    switch (C.Kind) {
    case StmtKind::Copy:
      ++Degree[C.Lhs];
      break;
    case StmtKind::AddrOf:
    case StmtKind::Alloc:
      if (ObjLabel[C.Rhs] == 0)
        ObjLabel[C.Rhs] = NextLabel++;
      G.AddrLabels[C.Lhs].push_back(ObjLabel[C.Rhs]);
      G.Taken[C.Rhs] = 1;
      break;
    case StmtKind::Load: // Lhs = *Rhs
      G.HasRef[C.Rhs] = 1;
      ++Degree[C.Lhs];
      break;
    case StmtKind::Store: // *Lhs = Rhs
      G.HasRef[C.Lhs] = 1;
      ++Degree[G.refNode(C.Lhs)];
      break;
    default:
      break;
    }
  }
  G.PredOffsets.assign(G.NumNodes + 1, 0);
  for (uint32_t I = 0; I < G.NumNodes; ++I)
    G.PredOffsets[I + 1] = G.PredOffsets[I] + Degree[I];
  G.Preds.resize(G.PredOffsets[G.NumNodes]);
  std::vector<uint32_t> Fill(G.PredOffsets.begin(),
                             G.PredOffsets.end() - 1);
  for (const AndersenConstraint &C : Constraints) {
    switch (C.Kind) {
    case StmtKind::Copy:
      G.Preds[Fill[C.Lhs]++] = C.Rhs;
      break;
    case StmtKind::Load:
      G.Preds[Fill[C.Lhs]++] = G.refNode(C.Rhs);
      break;
    case StmtKind::Store:
      G.Preds[Fill[G.refNode(C.Lhs)]++] = C.Rhs;
      break;
    default:
      break;
    }
  }

  for (uint32_t V = 0; V < N; ++V)
    Stats.RefNodes += G.HasRef[V];

  std::vector<uint32_t> Comp;
  uint32_t NumComps = tarjanSccs(G, Comp);

  // Group nodes by component with a counting sort (component ids are
  // dense), so each component's members are a contiguous slice.
  std::vector<uint32_t> CompOffsets(NumComps + 1, 0);
  for (uint32_t Node = 0; Node < G.NumNodes; ++Node)
    ++CompOffsets[Comp[Node] + 1];
  for (uint32_t C = 0; C < NumComps; ++C)
    CompOffsets[C + 1] += CompOffsets[C];
  std::vector<uint32_t> NodesByComp(G.NumNodes);
  {
    std::vector<uint32_t> Cursor(CompOffsets.begin(), CompOffsets.end() - 1);
    for (uint32_t Node = 0; Node < G.NumNodes; ++Node)
      NodesByComp[Cursor[Comp[Node]]++] = Node;
  }

  std::vector<uint32_t> Label(G.NumNodes, 0);
  // Hash-consing table: sorted incoming-label set -> its label.
  std::unordered_map<std::vector<uint32_t>, uint32_t, LabelSetHash> SetLabels;

  std::vector<uint32_t> Incoming;
  for (uint32_t C = 0; C < NumComps; ++C) {
    const uint32_t *MemBegin = NodesByComp.data() + CompOffsets[C];
    const uint32_t *MemEnd = NodesByComp.data() + CompOffsets[C + 1];
    uint32_t Size = static_cast<uint32_t>(MemEnd - MemBegin);

    bool Indirect = false;
    for (const uint32_t *M = MemBegin; M != MemEnd; ++M)
      if (G.isRefNode(*M) || G.Taken[*M]) {
        Indirect = true;
        break;
      }
    if (Indirect) {
      // Unknowable inflows: every member keeps its own identity. Not
      // even members of one SCC may share a label here -- a cycle
      // through a REF node proves mutual inclusion only if the
      // dereferenced pointer's set is nonempty.
      for (const uint32_t *M = MemBegin; M != MemEnd; ++M)
        Label[*M] = NextLabel++;
      continue;
    }

    // Direct SCC: a pure copy cycle (possibly a single node). All
    // members share one set: external inflows plus member ADR labels.
    Incoming.clear();
    for (const uint32_t *M = MemBegin; M != MemEnd; ++M) {
      for (uint32_t E = G.PredOffsets[*M]; E < G.PredOffsets[*M + 1]; ++E) {
        uint32_t Pred = G.Preds[E];
        if (Comp[Pred] != C && Label[Pred] != 0)
          Incoming.push_back(Label[Pred]);
      }
      for (uint32_t A : G.AddrLabels[*M])
        Incoming.push_back(A);
    }
    std::sort(Incoming.begin(), Incoming.end());
    Incoming.erase(std::unique(Incoming.begin(), Incoming.end()),
                   Incoming.end());

    uint32_t L;
    if (Incoming.empty()) {
      L = 0; // Nothing ever flows in: provably empty.
    } else if (Incoming.size() == 1) {
      L = Incoming[0]; // The set IS the single input's value.
    } else {
      auto [It, Fresh] = SetLabels.try_emplace(Incoming, NextLabel);
      if (Fresh)
        ++NextLabel;
      L = It->second;
    }
    for (const uint32_t *M = MemBegin; M != MemEnd; ++M)
      Label[*M] = L;
    if (Size > 1)
      Stats.CopySccVars += Size - 1;
  }
  Stats.Labels = NextLabel;

  // Merge VAR nodes by label. The first variable seen with a label
  // anchors its class; union-by-rank may elect any member as the
  // actual representative, which is fine -- the solver resolves
  // through Reps everywhere.
  std::vector<uint32_t> Anchor; // label -> first VAR with it, +1.
  Anchor.assign(NextLabel, 0);
  for (uint32_t V = 0; V < N; ++V) {
    uint32_t L = Label[V];
    if (Anchor[L] == 0) {
      Anchor[L] = V + 1;
      continue;
    }
    Reps.unite(Anchor[L] - 1, V);
    ++Stats.Collapsed;
  }
  Stats.LabelMergedVars = Stats.Collapsed - std::min(Stats.Collapsed,
                                                     Stats.CopySccVars);
  return Stats;
}
