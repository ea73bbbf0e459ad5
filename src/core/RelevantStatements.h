//===- core/RelevantStatements.h - Algorithm 1 ------------------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 1 of the paper: given a set of pointers P (a Steensgaard
/// partition or Andersen cluster), compute
///
///   V_P  -- the pointers (and dereferences thereof) whose values may
///           affect aliases of pointers in P, and
///   St_P -- the statements that modify a member of V_P.
///
/// The fixpoint alternates two rules:
///  (1) a direct assignment p = q / p = *q with p in V_P pulls in the
///      source (and its base pointer), and
///  (2) a store *q = r where q is strictly higher in the Steensgaard
///      hierarchy than some p in V_P -- or shares p's partition in the
///      cyclic points-to case -- pulls in *q, q and r.
///
/// Restricting any downstream analysis to St_P loses no aliases
/// (Theorem 6); the example of Figure 3 (where `p = x` is correctly
/// *excluded*) is covered by tests and the fig3 bench.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_CORE_RELEVANTSTATEMENTS_H
#define BSAA_CORE_RELEVANTSTATEMENTS_H

#include "core/Cluster.h"
#include "ir/Ir.h"
#include "support/ShardedCache.h"

#include <vector>

namespace bsaa {
namespace analysis {
class SteensgaardAnalysis;
} // namespace analysis

namespace core {

/// Result of Algorithm 1.
struct RelevantSlice {
  std::vector<ir::Ref> TrackedRefs;  ///< V_P.
  std::vector<ir::LocId> Statements; ///< St_P.

  /// Payload-size estimate for the slice cache's byte gauge.
  uint64_t approxBytes() const {
    return sizeof(RelevantSlice) + TrackedRefs.size() * sizeof(ir::Ref) +
           Statements.size() * sizeof(ir::LocId);
  }
};

/// Statement indexes shared across Algorithm 1 runs. Build once per
/// program; running the algorithm for thousands of clusters then costs
/// time proportional to each cluster's slice, not the whole program.
struct SliceIndex {
  /// Direct-assignment locations per lhs variable (Copy, AddrOf, Load,
  /// Alloc, Nullify).
  std::vector<std::vector<ir::LocId>> DefsOf;
  /// Store locations per base pointer (*base = rhs).
  std::vector<std::vector<ir::LocId>> StoresByBase;
  /// Store locations grouped by the base pointer's partition.
  std::vector<std::vector<ir::LocId>> StoresByBasePartition;
  /// Partition-graph predecessors (who points into whom), for the
  /// ancestor walk of rule (2).
  std::vector<std::vector<uint32_t>> PartitionPreds;

  SliceIndex(const ir::Program &P,
             const analysis::SteensgaardAnalysis &Steens);
};

/// Runs Algorithm 1 for the pointer set \p Members using the hierarchy
/// of \p Steens.
RelevantSlice
computeRelevantStatements(const ir::Program &P,
                          const analysis::SteensgaardAnalysis &Steens,
                          const std::vector<ir::VarId> &Members);

/// Fast path with a prebuilt index.
RelevantSlice
computeRelevantStatements(const ir::Program &P,
                          const analysis::SteensgaardAnalysis &Steens,
                          const std::vector<ir::VarId> &Members,
                          const SliceIndex &Index);

/// Convenience: fills TrackedRefs / Statements of \p C in place.
void attachRelevantSlice(const ir::Program &P,
                         const analysis::SteensgaardAnalysis &Steens,
                         Cluster &C);

/// Fast path with a prebuilt index.
void attachRelevantSlice(const ir::Program &P,
                         const analysis::SteensgaardAnalysis &Steens,
                         Cluster &C, const SliceIndex &Index);

//===----------------------------------------------------------------------===//
// Content-addressed slice memoization
//===----------------------------------------------------------------------===//

/// 64-bit content fingerprint of a whole program: variables (kind,
/// type, depth, owner), functions (params, entry/exit), and every
/// location's statement + CFG edges. Two programs with equal
/// fingerprints are treated as identical by the slice and summary
/// caches, which lets one process-wide cache serve many programs (the
/// ablation harnesses and the property-test corpus) without
/// cross-contamination.
uint64_t programFingerprint(const ir::Program &P);

/// Cache key for Algorithm-1 output. The slice is a pure function of
/// (program, Steensgaard hierarchy, members), and the hierarchy is
/// itself a deterministic function of the program, so the program
/// fingerprint plus the member list addresses the result completely
/// (see DESIGN.md, "Summary-cache key derivation").
support::Digest sliceCacheKey(uint64_t ProgramFingerprint,
                              const std::vector<ir::VarId> &Members);

/// Shared Algorithm-1 result cache (sharded, thread-safe).
using SliceCache = support::ShardedCache<RelevantSlice>;

/// Cached fast path: consults \p Cache (when non-null) before running
/// Algorithm 1, and publishes fresh results into it.
void attachRelevantSlice(const ir::Program &P,
                         const analysis::SteensgaardAnalysis &Steens,
                         Cluster &C, const SliceIndex &Index,
                         SliceCache *Cache, uint64_t ProgramFingerprint);

} // namespace core
} // namespace bsaa

#endif // BSAA_CORE_RELEVANTSTATEMENTS_H
