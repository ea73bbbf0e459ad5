//===- fscs/AndersenOracle.h - Slice-local Andersen sets --------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The points-to oracle a SummaryEngine consults where it does not know
/// the FSCI set of a pointer yet: Andersen's analysis over the cluster's
/// own slice St_P. It is the paper's bootstrapping one stage deeper --
/// Steensgaard bootstraps Andersen, and Andersen bootstraps FSCS. Without
/// it the engine falls back to the whole Steensgaard pointee partition
/// and forks PointsTo / NotPointsTo tuples for every member; the oracle
/// prunes every member Andersen rules out.
///
/// Algorithm 1's rules (1) and (2) put every constraint that can reach a
/// pointer the engine asks about into St_P, so on those pointers the
/// slice's Andersen sets equal the whole program's (DESIGN.md, "Andersen
/// bootstraps the engine"). The oracle reads St_P alone, which the
/// cluster's scope key already hashes.
///
/// The solve is lazy: most clusters never ask, and those pay nothing.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_FSCS_ANDERSENORACLE_H
#define BSAA_FSCS_ANDERSENORACLE_H

#include "analysis/Andersen.h"
#include "core/Cluster.h"

namespace bsaa {
namespace fscs {

/// Andersen points-to sets over one cluster's slice, solved on demand.
class AndersenOracle {
public:
  AndersenOracle(const ir::Program &P, const core::Cluster &C)
      : Clu(C), Solver(P) {}

  /// Andersen points-to set of \p V over the cluster's slice. The first
  /// call solves; the reference lives as long as the oracle.
  const SparseBitVector &pointsTo(ir::VarId V) {
    if (!Solved) {
      Solver.runOn(Clu.Statements);
      Solved = true;
    }
    return Solver.pointsTo(V);
  }

  /// True once a question has made the oracle solve.
  bool solved() const { return Solved; }

private:
  const core::Cluster &Clu;
  analysis::AndersenAnalysis Solver;
  bool Solved = false;
};

} // namespace fscs
} // namespace bsaa

#endif // BSAA_FSCS_ANDERSENORACLE_H
