//===- ir/CallGraph.h - Call graph with SCCs --------------------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Call graph over the IR with Tarjan SCC decomposition. The summary
/// computation of the paper (Algorithm 5) "analyzes strongly connected
/// components of the call graph of the given program in reverse
/// topological order"; sccOrder() delivers exactly that order.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_IR_CALLGRAPH_H
#define BSAA_IR_CALLGRAPH_H

#include "ir/Ir.h"
#include "support/Scc.h"

#include <utility>
#include <vector>

namespace bsaa {
namespace ir {

/// Immutable call graph of a Program.
class CallGraph {
public:
  /// Builds the graph from the (already callee-resolved) Call locations
  /// of \p P.
  explicit CallGraph(const Program &P);

  /// Functions called (possibly indirectly resolved) from \p F.
  const std::vector<FuncId> &callees(FuncId F) const {
    return CalleeLists[F];
  }

  /// Functions containing a call to \p F.
  const std::vector<FuncId> &callers(FuncId F) const {
    return CallerLists[F];
  }

  /// Every (caller, call location) whose callee set contains \p Callee:
  /// callers in callers() order, each caller's sites in ascending
  /// location order.
  const std::vector<std::pair<FuncId, LocId>> &
  callSitesOf(FuncId Callee) const {
    return CallSiteLists[Callee];
  }

  /// All call locations inside \p Caller.
  const std::vector<LocId> &callLocations(FuncId Caller) const {
    return CallLocs[Caller];
  }

  /// SCC decomposition; components are numbered in reverse topological
  /// order (callees before callers), so iterating components
  /// 0 .. numComponents()-1 is the processing order of Algorithm 5.
  const SccResult &sccs() const { return Sccs; }

  /// True if \p F is in a cycle (mutual recursion) or calls itself.
  bool isRecursive(FuncId F) const;

  /// Functions in reverse topological order of the SCC condensation,
  /// flattened (members of one SCC are adjacent).
  std::vector<FuncId> reverseTopologicalOrder() const;

private:
  std::vector<std::vector<FuncId>> CalleeLists;
  std::vector<std::vector<FuncId>> CallerLists;
  std::vector<std::vector<LocId>> CallLocs;
  std::vector<std::vector<std::pair<FuncId, LocId>>> CallSiteLists;
  SccResult Sccs;
  std::vector<uint8_t> SelfLoop;
};

} // namespace ir
} // namespace bsaa

#endif // BSAA_IR_CALLGRAPH_H
