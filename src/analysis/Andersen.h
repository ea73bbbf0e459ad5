//===- analysis/Andersen.h - Inclusion-based points-to ----------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Andersen's inclusion-based, flow- and context-insensitive points-to
/// analysis (Andersen 1994), implemented as a constraint-graph worklist
/// solver with three optional accelerations that leave the computed
/// points-to sets byte-identical to the naive solver:
///
///  * offline HVN preparation (analysis/AndersenPrepare.h): variables
///    proven pointer-equivalent by hash value numbering of the offline
///    constraint graph -- including pure copy-edge SCCs found with
///    support/Scc -- are collapsed before solving;
///  * difference propagation: each node remembers the members added
///    since it was last processed, so complex-constraint processing
///    and copy propagation walk only the delta instead of re-scanning
///    full SparseBitVectors on every pop;
///  * periodic online cycle elimination (collapsing copy-edge SCCs
///    that emerge during solving into single nodes).
///
/// In the bootstrapping cascade the solver is also run *restricted to the
/// statement slice of one Steensgaard partition* (runOn), which is what
/// makes Andersen's analysis scale on programs where a whole-program run
/// would be too slow: Steensgaard bootstraps Andersen. Every solve
/// numbers the variables its statements mention densely, so a slice's
/// solve costs time and memory in the slice's size, not the program's;
/// run() is runOn() over every pointer assignment.
///
/// Being unidirectional, Andersen points-to sets are not equivalence
/// classes; the derived *Andersen clusters* -- sets of pointers pointing
/// to the same object -- form a disjunctive alias cover (Theorem 7) and
/// are extracted by core/AliasCover.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_ANALYSIS_ANDERSEN_H
#define BSAA_ANALYSIS_ANDERSEN_H

#include "analysis/AndersenPrepare.h"
#include "ir/Ir.h"
#include "support/FlatContainers.h"
#include "support/SparseBitVector.h"
#include "support/UnionFind.h"

#include <unordered_set>
#include <vector>

namespace bsaa {

class Worklist;

namespace analysis {

/// Inclusion-based points-to solver.
class AndersenAnalysis {
public:
  struct Options {
    /// Collapse copy-edge SCCs periodically during solving.
    bool CycleElimination = true;
    /// Worklist pops between collapse passes (0 picks a default).
    uint32_t CollapsePeriod = 0;
    /// Offline HVN pointer-equivalence collapsing before solving
    /// (analysis/AndersenPrepare.h). Results are identical with it on
    /// or off; only solve time and node counts change.
    bool EnableHVN = true;
    /// Difference propagation: pops walk only newly added points-to
    /// members. Identical results; the naive full-scan walk is kept as
    /// the ablation baseline and differential-testing reference.
    bool EnableDiffProp = true;
  };

  explicit AndersenAnalysis(const ir::Program &P);
  AndersenAnalysis(const ir::Program &P, Options Opts);

  /// Solves over every statement of the program.
  void run();

  /// Solves over exactly \p Stmts -- the bootstrapped mode, where
  /// \p Stmts is the relevant-statement slice of one Steensgaard
  /// partition (Algorithm 1).
  void runOn(const std::vector<ir::LocId> &Stmts);

  /// Points-to set of \p V as a bit set over VarIds; empty for a
  /// variable the solved statements never mention.
  const SparseBitVector &pointsTo(ir::VarId V) const;

  /// Points-to set materialized as a sorted vector.
  std::vector<ir::VarId> pointsToVars(ir::VarId V) const;

  /// May-alias: points-to sets intersect.
  bool mayAlias(ir::VarId A, ir::VarId B) const;

  /// Worklist pops performed (solver effort metric for ablations).
  uint64_t iterations() const { return Iterations; }

  /// Copy-edge SCC collapses performed online (during solving).
  uint64_t collapsedNodes() const { return Collapsed; }

  /// Offline preparation accounting (all zero when EnableHVN is off).
  const PrepareStats &prepareStats() const { return PrepStats; }

  /// Bytes of SparseBitVector chunk storage walked by constraint
  /// processing: delta bytes under difference propagation, full-set
  /// bytes under the naive walk. The ablation's "how much set data did
  /// solving actually touch" metric.
  uint64_t propagatedBytes() const { return PropagatedBytes; }

  /// Wall-clock seconds spent solving.
  double solveSeconds() const { return SolveSeconds; }

  /// Copy edges currently stored across all adjacency lists (test and
  /// ablation introspection).
  uint64_t copyEdgeCount() const;

  /// Copy edges that duplicate an earlier entry of the same source's
  /// adjacency list (same raw target id). The dedup invariant promises
  /// zero; the collapse-merge regression test asserts it.
  uint64_t duplicateCopyEdges() const;

private:
  /// Numbers the variables of \p Stmts densely (Vars) and translates
  /// their pointer assignments into Constraints over that numbering.
  void collectConstraints(const std::vector<ir::LocId> &Stmts);
  void addConstraints();
  bool addCopyEdge(uint32_t From, uint32_t To);
  void solve();
  /// Collapses copy-edge SCCs among representatives. Merged
  /// representatives whose points-to set or constraint lists changed
  /// are re-queued on \p WL (with their full set as the pending delta
  /// under difference propagation): inherited load/store constraints
  /// have never seen the surviving set's members, so the merge is only
  /// sound if the representative is reprocessed.
  void collapseCycles(Worklist &WL);

  const ir::Program &Prog;
  Options Opts;

  /// The solve's variables: node id -> VarId, ascending, so node ids
  /// order as their VarIds do. Every array below is indexed by node id,
  /// and the points-to members are node ids until solve() has run,
  /// after which they are translated to VarIds.
  std::vector<ir::VarId> Vars;
  /// VarId -> node id, for the variables in Vars. pointsTo() is the
  /// query fallback's hot path, so this is a hash probe, not a search.
  U64FlatMap<uint32_t> NodeOf;
  std::vector<AndersenConstraint> Constraints;
  /// pointsTo() of a variable outside Vars.
  SparseBitVector Empty;

  /// Node representatives (offline HVN and online cycle elimination
  /// both merge nodes here).
  UnionFind Reps;
  std::vector<SparseBitVector> Pts;        ///< Keyed by representative.
  std::vector<std::vector<uint32_t>> Copy; ///< Copy successors (raw ids).
  /// Per-source dedup of copy edges. The vector is already indexed by
  /// the source representative, so entries store just the target id.
  std::vector<std::unordered_set<uint32_t>> CopyDedup;
  /// Members added to Pts since the node was last processed (only
  /// maintained under EnableDiffProp).
  std::vector<SparseBitVector> Delta;
  /// x = *y pairs (y, x) and *x = y pairs (x, y); node ids.
  std::vector<std::pair<ir::VarId, ir::VarId>> Loads;
  std::vector<std::pair<ir::VarId, ir::VarId>> Stores;
  /// Loads/Stores indexed by their pointer operand's representative.
  std::vector<std::vector<uint32_t>> LoadsAt;
  std::vector<std::vector<uint32_t>> StoresAt;

  PrepareStats PrepStats;
  uint64_t Iterations = 0;
  uint64_t Collapsed = 0;
  uint64_t PropagatedBytes = 0;
  bool HasRun = false;
  double SolveSeconds = 0;
};

} // namespace analysis
} // namespace bsaa

#endif // BSAA_ANALYSIS_ANDERSEN_H
