//===- core/ClusterDependencies.h - Cluster dependency scopes ---*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dependency scope of a cluster: which functions a per-cluster
/// FSCS run can observe, and a content digest of exactly that
/// observable region. That digest is the summary-cache key of every
/// cluster run: it survives edits outside the cluster's dependency
/// scope, so unaffected clusters replay from cache across program
/// versions, and it is sound to share across programs for the same
/// reason.
///
/// The scope is derived from the cluster's Algorithm-1 slice plus the
/// call graph. Writing R for the owners of the slice statements, the
/// members, and the tracked refs (plus the entry function, where global
/// queries anchor), the engine can only ever visit functions in
///
///   D = R  u  callers*(R)
///
/// -- it starts traversals at member owners / the entry, walks
/// intra-function CFGs, ascends to callers (all in callers*), and
/// descends into a callee only when the callee's subtree contains slice
/// statements, i.e. the callee is an ancestor of a slice owner and
/// hence already in D. The scope key hashes the full content of D (with
/// raw ids: a hit must guarantee the cached engine state's
/// VarIds/LocIds are valid verbatim), the Steensgaard facts reachable
/// from the cluster, and the per-call-site "which slice owners does
/// this callee reach" sets that decide descent. See DESIGN.md, "Delta
/// fingerprinting and incremental re-analysis".
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_CORE_CLUSTERDEPENDENCIES_H
#define BSAA_CORE_CLUSTERDEPENDENCIES_H

#include "core/Cluster.h"
#include "fscs/SummaryEngine.h"
#include "ir/CallGraph.h"
#include "support/ContentHash.h"
#include "support/SparseBitVector.h"

#include <vector>

namespace bsaa {
namespace analysis {
class SteensgaardAnalysis;
} // namespace analysis

namespace core {

/// The functions a FSCS run over \p C can observe (sorted by id):
/// owners of slice statements / members / tracked refs, the entry
/// function, and every transitive caller thereof.
std::vector<ir::FuncId> dependentFunctions(const ir::Program &P,
                                           const ir::CallGraph &CG,
                                           const Cluster &C);

/// The dependency-scope key over one (program, Steensgaard solve): the
/// per-function and per-partition digests are computed once, so a
/// cluster's key combines digests instead of rehashing the program.
/// The referenced analyses must outlive the index; key() is
/// thread-safe.
class ScopeKeyIndex {
public:
  ScopeKeyIndex(const ir::Program &P, const ir::CallGraph &CG,
                const analysis::SteensgaardAnalysis &Steens);

  /// Content digest of everything a per-cluster FSCS run over \p C
  /// reads (see file comment). Key equality across two (program,
  /// Steensgaard) versions implies the engine observes identical
  /// inputs in both, so a cached run replays bit-identically.
  support::Digest key(const Cluster &C,
                      const fscs::SummaryEngine::Options &Opts) const;

private:
  const ir::Program &P;
  const ir::CallGraph &CG;
  const analysis::SteensgaardAnalysis &Steens;
  // Per function: digest of its id, signature and locations; the
  // partitions those name; its distinct call-site callees.
  std::vector<support::Digest> BodyDigest;
  std::vector<std::vector<uint32_t>> FuncParts;
  std::vector<std::vector<ir::FuncId>> FuncCallees;
  /// Per call-graph component: the functions reachable from it.
  std::vector<SparseBitVector> CompReach;
  /// Per partition: digest of its depth, has-predecessor bit, member
  /// variable records and the pointee grouping among the members.
  std::vector<support::Digest> PartDigest;
  /// Per partition: its smallest member (the canonical sort key).
  std::vector<ir::VarId> PartFirst;
  /// Per partition: the partition of its hierarchy node with the
  /// smallest PartFirst (itself unless the node is a cycle).
  std::vector<uint32_t> NodeLeader;
};

} // namespace core
} // namespace bsaa

#endif // BSAA_CORE_CLUSTERDEPENDENCIES_H
