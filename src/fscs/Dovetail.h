//===- fscs/Dovetail.h - Algorithm 2 ----------------------------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 2 of the paper: dovetail the computation of summary tuples
/// with the computation of FSCI points-to sets in increasing Steensgaard
/// depth. Summaries for pointers at depth d consult FSCI points-to sets
/// only of pointers at depth < d (strictly higher in the hierarchy), so
/// processing depths top-down guarantees every dereference the transfer
/// function meets is already resolved -- except inside collapsed
/// points-to cycles, where the engine's constraint branching takes over,
/// exactly as the paper prescribes.
///
/// With the demand-driven SummaryEngine the dovetailing amounts to
/// *warming* the FSCI memo in depth order before the cluster's own
/// summaries are computed.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_FSCS_DOVETAIL_H
#define BSAA_FSCS_DOVETAIL_H

#include "core/Cluster.h"
#include "ir/Ir.h"
#include "support/Statistics.h"

#include <cstdint>

namespace bsaa {
namespace analysis {
class SteensgaardAnalysis;
} // namespace analysis

namespace fscs {

class SummaryEngine;

/// Statistics from a dovetail pass.
///
/// Accounting invariant (holds even when the engine's step budget runs
/// out mid-pass): FsciQueries counts exactly the fsciPointsTo() calls
/// that were issued; DepthLevels counts exactly the depth levels whose
/// every (pointer, location) pair was issued; Complete is true iff every
/// level was fully issued *and* no query was truncated by the budget.
/// A partially-processed level is therefore never counted, and queries
/// that were never issued are never counted.
struct DovetailStats {
  uint32_t DepthLevels = 0;   ///< Depth levels fully issued.
  uint32_t FsciQueries = 0;   ///< fsciPointsTo() calls issued.
  bool Complete = true;       ///< No level skipped, no query truncated.
};

/// Warms \p Engine's FSCI memo for every dereference base appearing in
/// the cluster slice, in increasing Steensgaard depth order.
DovetailStats dovetail(SummaryEngine &Engine, const ir::Program &P,
                       const analysis::SteensgaardAnalysis &Steens,
                       const core::Cluster &C);

/// Folds one dovetail pass's accounting into \p Global under the
/// "fscs." prefix. The cluster driver calls this on *both* the live
/// path and the summary-cache replay path, so the global statistics a
/// run reports are invariant under cache hits -- the cache-on versus
/// cache-off oracle asserts exactly that.
void accumulateDovetailStats(const DovetailStats &S, Statistics &Global);

} // namespace fscs
} // namespace bsaa

#endif // BSAA_FSCS_DOVETAIL_H
