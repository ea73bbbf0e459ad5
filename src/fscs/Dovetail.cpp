//===- fscs/Dovetail.cpp - Algorithm 2 ------------------------------------===//

#include "fscs/Dovetail.h"

#include "analysis/Steensgaard.h"
#include "fscs/SummaryEngine.h"

#include <map>
#include <vector>

using namespace bsaa;
using namespace bsaa::fscs;
using namespace bsaa::ir;

DovetailStats fscs::dovetail(SummaryEngine &Engine, const Program &P,
                             const analysis::SteensgaardAnalysis &Steens,
                             const core::Cluster &C) {
  // Collect every (pointer, location) pair where the slice dereferences
  // the pointer: store bases and load bases. Those are exactly the FSCI
  // sets Algorithm 4 consults.
  std::map<uint32_t, std::vector<std::pair<VarId, LocId>>> ByDepth;
  for (LocId L : C.Statements) {
    const Location &Loc = P.loc(L);
    VarId Base = InvalidVar;
    if (Loc.Kind == StmtKind::Store)
      Base = Loc.Lhs;
    else if (Loc.Kind == StmtKind::Load)
      Base = Loc.Rhs;
    if (Base == InvalidVar)
      continue;
    ByDepth[Steens.depthOf(Base)].emplace_back(Base, L);
  }

  // See the invariant on DovetailStats: count a query only when issued,
  // count a level only when all of its queries were issued, and report
  // Complete only when on top of that no query was cut short.
  DovetailStats Stats;
  for (auto &[Depth, Uses] : ByDepth) {
    (void)Depth;
    for (auto [Var, Loc] : Uses) {
      if (Engine.budgetExhausted()) {
        Stats.Complete = false;
        return Stats;
      }
      Engine.fsciPointsTo(Var, Loc);
      ++Stats.FsciQueries;
    }
    ++Stats.DepthLevels;
  }
  // The last issued query may itself have hit the budget: its FSCI set
  // is partial even though it was issued.
  if (Engine.budgetExhausted())
    Stats.Complete = false;
  return Stats;
}

void fscs::accumulateDovetailStats(const DovetailStats &S,
                                   Statistics &Global) {
  Global.add("fscs.dovetail-depth-levels", S.DepthLevels);
  Global.add("fscs.dovetail-fsci-queries", S.FsciQueries);
  if (!S.Complete)
    Global.add("fscs.dovetail-incomplete", 1);
}
