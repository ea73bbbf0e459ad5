//===- ir/CallGraph.cpp - Call graph with SCCs ----------------------------===//

#include "ir/CallGraph.h"

#include <algorithm>

using namespace bsaa;
using namespace bsaa::ir;

CallGraph::CallGraph(const Program &P) {
  uint32_t N = P.numFuncs();
  CalleeLists.resize(N);
  CallerLists.resize(N);
  CallLocs.resize(N);
  CallSiteLists.resize(N);
  SelfLoop.assign(N, 0);

  for (LocId L = 0; L < P.numLocs(); ++L) {
    const Location &Loc = P.loc(L);
    if (!Loc.isCall())
      continue;
    FuncId Caller = Loc.Owner;
    CallLocs[Caller].push_back(L);
    for (FuncId Callee : Loc.Callees) {
      if (Callee == Caller)
        SelfLoop[Caller] = 1;
      std::vector<std::pair<FuncId, LocId>> &Sites = CallSiteLists[Callee];
      if (Sites.empty() || Sites.back().second != L)
        Sites.emplace_back(Caller, L);
      std::vector<FuncId> &Cs = CalleeLists[Caller];
      if (std::find(Cs.begin(), Cs.end(), Callee) == Cs.end()) {
        Cs.push_back(Callee);
        CallerLists[Callee].push_back(Caller);
      }
    }
  }

  // The scan above appends each callee's sites in ascending location
  // order, and its callers in order of their first site: a stable sort
  // by that order groups the sites by caller as callSitesOf() promises.
  std::vector<uint32_t> CallerRank(N, 0);
  for (FuncId Callee = 0; Callee < N; ++Callee) {
    const std::vector<FuncId> &Callers = CallerLists[Callee];
    if (Callers.size() < 2)
      continue;
    for (uint32_t I = 0; I < Callers.size(); ++I)
      CallerRank[Callers[I]] = I;
    std::stable_sort(CallSiteLists[Callee].begin(),
                     CallSiteLists[Callee].end(),
                     [&](const auto &A, const auto &B) {
                       return CallerRank[A.first] < CallerRank[B.first];
                     });
  }

  Sccs = computeSccs(N, [this](uint32_t F,
                               const std::function<void(uint32_t)> &Visit) {
    for (FuncId Callee : CalleeLists[F])
      Visit(Callee);
  });
}

bool CallGraph::isRecursive(FuncId F) const {
  return SelfLoop[F] || Sccs.inNontrivialScc(F);
}

std::vector<FuncId> CallGraph::reverseTopologicalOrder() const {
  std::vector<FuncId> Order;
  Order.reserve(CalleeLists.size());
  for (uint32_t C = 0; C < Sccs.numComponents(); ++C)
    for (FuncId F : Sccs.Members[C])
      Order.push_back(F);
  return Order;
}
