//===- analysis/AndersenPrepare.h - Offline constraint collapsing -*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline (pre-solve) simplification of Andersen's constraint graph in
/// the HVN style of Hardekopf & Lin ("The Ant and the Grasshopper",
/// PLDI 2007): hash-value-number the *offline constraint graph* and
/// collapse variables that provably have identical points-to sets in
/// the least solution, before the worklist solver ever runs.
///
/// The offline graph has one VAR node per variable plus one REF node
/// `*v` per dereferenced variable:
///
///   x = y   adds edge VAR(y) -> VAR(x)
///   x = *y  adds edge REF(y) -> VAR(x)
///   *x = y  adds edge VAR(y) -> REF(x)
///   x = &o  marks VAR(x) with the object label ADR(o) and makes
///           VAR(o) *address-taken*
///
/// Every node receives a pointer-equivalence label; equal labels imply
/// equal final points-to sets. Labels are assigned over the SCC
/// condensation in topological order (support/Scc):
///
///   - REF nodes and address-taken VAR nodes are *indirect*: stores
///     can inject members into them in ways the offline graph does not
///     represent, so each gets a fresh, never-shared label. Any SCC
///     containing an indirect node likewise yields fresh labels for
///     all its members -- equivalence through a REF cycle holds only
///     when the dereferenced pointer's set is nonempty, which is not
///     provable offline, and this repo's oracle demands byte-identical
///     results, so we refuse the merge LLVM-era HVN variants made.
///   - A *direct* SCC (all members VAR, all internal edges copies) is
///     a copy cycle: mutual inclusion makes every member's set equal
///     to the union of the labels flowing in from outside the SCC plus
///     the members' ADR labels. The whole SCC gets one label: the
///     empty set's label 0 if nothing flows in, the single incoming
///     label if exactly one does (the set IS that value), else a label
///     hash-consed from the sorted incoming-label set.
///
/// VAR nodes sharing a label are merged in the solver's UnionFind
/// before constraints are generated, so the online solver sees one
/// node per offline equivalence class. Label 0 (provably empty) nodes
/// merge too: their sets stay empty, loads/stores hanging off them can
/// never fire, and every query answer is unchanged.
///
/// Soundness/exactness argument is spelled out in DESIGN.md; the
/// 100-seed differential oracle in tests/test_andersen_opt.cpp pins
/// the optimized solver byte-identical to the naive one.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_ANALYSIS_ANDERSENPREPARE_H
#define BSAA_ANALYSIS_ANDERSENPREPARE_H

#include "ir/Ir.h"
#include "support/UnionFind.h"

#include <vector>

namespace bsaa {
namespace analysis {

/// Accounting of one offline preparation run.
struct PrepareStats {
  uint32_t VarNodes = 0;  ///< Variables in the offline universe (the
                          ///< solve's, not the program's).
  uint32_t RefNodes = 0;  ///< Materialized `*v` nodes.
  uint32_t Labels = 0;    ///< Distinct pointer-equivalence labels issued.
  /// Variables merged away because they sit in a multi-member direct
  /// SCC (a pure copy cycle found offline).
  uint32_t CopySccVars = 0;
  /// Variables merged away beyond the SCC collapses: distinct nodes
  /// whose hash-value-numbered label matched another node's.
  uint32_t LabelMergedVars = 0;
  /// Total variables united into another representative
  /// (CopySccVars + LabelMergedVars).
  uint32_t Collapsed = 0;
};

/// One inclusion constraint of a solve, over the solve's dense variable
/// numbering: Kind is Copy (Lhs = Rhs), AddrOf or Alloc (Lhs = &Rhs),
/// Load (Lhs = *Rhs) or Store (*Lhs = Rhs).
struct AndersenConstraint {
  ir::StmtKind Kind;
  uint32_t Lhs;
  uint32_t Rhs;
};

/// Runs the offline HVN pass over \p Constraints, whose variables are
/// numbered densely below \p NumVars, and records every provable
/// equivalence as a merge in \p Reps (which must already span
/// \p NumVars singletons).
PrepareStats prepareAndersen(uint32_t NumVars,
                             const std::vector<AndersenConstraint> &Constraints,
                             UnionFind &Reps);

} // namespace analysis
} // namespace bsaa

#endif // BSAA_ANALYSIS_ANDERSENPREPARE_H
