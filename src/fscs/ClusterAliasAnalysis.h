//===- fscs/ClusterAliasAnalysis.h - Per-cluster FSCS queries ---*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public query layer of the flow- and context-sensitive analysis
/// for one cluster:
///
///  * flow-sensitive context-insensitive (FSCI) points-to / may-alias /
///    must-alias at a location (Algorithm 3: the union over all
///    contexts), and
///  * flow- and context-sensitive queries for one specific context --
///    a chain of call sites from the program entry -- obtained by
///    splicing the per-function summaries along exactly that chain
///    (Section 3, "Computing Flow and Context-Sensitive Aliases").
///
/// Two pointers may alias iff their value-origin sets intersect; this is
/// the computational form of Theorem 5 (a common pointer a with
/// maximally complete update sequences to both).
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_FSCS_CLUSTERALIASANALYSIS_H
#define BSAA_FSCS_CLUSTERALIASANALYSIS_H

#include "core/Cluster.h"
#include "fscs/Dovetail.h"
#include "fscs/SummaryEngine.h"
#include "ir/CallGraph.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace bsaa {
namespace fscs {

/// FSCS queries over one cluster slice.
class ClusterAliasAnalysis {
public:
  /// A context: the call sites (Call locations) on the stack, outermost
  /// first. Empty means "code reached directly in the entry function".
  using Context = std::vector<ir::LocId>;

  /// Result of a points-to query.
  struct PointsToResult {
    std::vector<ir::VarId> Objects;
    /// True when every update-sequence chain was fully resolved -- no
    /// step budget hit, no fan-out approximation, no chain ending at an
    /// unanalyzable boundary. Must-alias verdicts require this.
    bool Complete = true;
  };

  ClusterAliasAnalysis(const ir::Program &P, const ir::CallGraph &CG,
                       const analysis::SteensgaardAnalysis &Steens,
                       const core::Cluster &C);
  ClusterAliasAnalysis(const ir::Program &P, const ir::CallGraph &CG,
                       const analysis::SteensgaardAnalysis &Steens,
                       const core::Cluster &C, SummaryEngine::Options Opts);

  /// Runs the dovetail warmup (Algorithm 2). Queries run it lazily if
  /// needed; calling it explicitly makes timing measurements cleaner.
  void prepare();

  /// Installs a previously exported engine state plus its dovetail
  /// accounting (a SummaryCache hit) and marks the analysis prepared.
  /// Only valid when this analysis was constructed over the same
  /// program, cluster, and options that produced the state; queries are
  /// then answered from the restored fixpoint exactly as the exporting
  /// engine would have answered them.
  void adoptState(SummaryEngine::State S, const DovetailStats &D);

  //===--------------------------------------------------------------===//
  // FSCI queries (all contexts)
  //===--------------------------------------------------------------===//

  /// Objects \p V may point to just before \p Loc, in any context.
  /// Answers are memoized per (V, Loc): a walk that left the engine's
  /// version() unchanged is stored, and served again for as long as the
  /// version still matches, so every served answer is byte-identical to
  /// a re-walk (see SummaryEngine::version()).
  PointsToResult pointsTo(ir::VarId V, ir::LocId Loc) {
    return pointsToRef(V, Loc);
  }

  /// pointsTo() without the copy: a reference into the answer memo,
  /// valid until the next pointsTo of the same (V, Loc) or the
  /// analysis is destroyed.
  const PointsToResult &pointsToRef(ir::VarId V, ir::LocId Loc);

  /// Number of pointsTo walks run so far (answer-memo misses).
  uint64_t numWalks() const { return NumWalks; }

  /// May-alias at \p Loc: origin sets intersect.
  bool mayAlias(ir::VarId A, ir::VarId B, ir::LocId Loc);

  /// Must-alias at \p Loc: both origin sets are the same complete
  /// singleton (the lockset criterion used by racedetect).
  bool mustAlias(ir::VarId A, ir::VarId B, ir::LocId Loc);

  //===--------------------------------------------------------------===//
  // Context-sensitive queries
  //===--------------------------------------------------------------===//

  /// Objects \p V may point to just before \p Loc when reached via
  /// \p Ctx.
  PointsToResult pointsToInContext(ir::VarId V, ir::LocId Loc,
                                   const Context &Ctx);

  bool mayAliasInContext(ir::VarId A, ir::VarId B, ir::LocId Loc,
                         const Context &Ctx);

  bool mustAliasInContext(ir::VarId A, ir::VarId B, ir::LocId Loc,
                          const Context &Ctx);

  /// Access to the underlying engine (for stats and tests).
  SummaryEngine &engine() { return *Engine; }
  const SummaryEngine &engine() const { return *Engine; }

  /// Accounting of the dovetail warmup (all zeros before prepare()).
  const DovetailStats &dovetailStats() const { return DoveStats; }

  const core::Cluster &cluster() const { return Clu; }

private:
  /// One memoized pointsTo answer; served only while Version equals
  /// the engine's version().
  struct MemoEntry {
    static constexpr uint64_t Stale = ~uint64_t(0);
    uint64_t Version = Stale;
    PointsToResult Answer;
  };

  void ensurePrepared();

  const ir::Program &Prog;
  const analysis::SteensgaardAnalysis &Steens;
  const core::Cluster &Clu;
  std::unique_ptr<SummaryEngine> Engine;
  DovetailStats DoveStats;
  bool Prepared = false;
  std::unordered_map<uint64_t, MemoEntry> AnswerMemo; ///< By (V, Loc).
  uint64_t NumWalks = 0;
};

} // namespace fscs
} // namespace bsaa

#endif // BSAA_FSCS_CLUSTERALIASANALYSIS_H
