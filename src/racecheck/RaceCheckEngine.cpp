//===- racecheck/RaceCheckEngine.cpp - Incremental race checking ----------===//

#include "racecheck/RaceCheckEngine.h"

#include "ir/Dumper.h"
#include "support/Timer.h"
#include "support/Worklist.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>

using namespace bsaa;
using namespace bsaa::racecheck;
using namespace bsaa::ir;

std::shared_ptr<const RaceReport> RaceCheckEngine::report() const {
  std::lock_guard<std::mutex> Lock(ReportMutex);
  return Current;
}

void RaceCheckEngine::reset() {
  FactsCache.clear();
  PrevVars.clear();
  WarningVars.clear();
  UpdateOrdinal = 0;
  std::lock_guard<std::mutex> Lock(ReportMutex);
  Current.reset();
}

namespace {

/// SharedRank of a variable outside the shared set.
constexpr uint32_t NotShared = UINT32_MAX;

/// Sorted-vector disjointness.
bool disjointLocksets(const std::vector<std::string> &A,
                      const std::vector<std::string> &B) {
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    int C = A[I].compare(B[J]);
    if (C == 0)
      return false;
    if (C < 0)
      ++I;
    else
      ++J;
  }
  return true;
}

bool sameSite(const std::shared_ptr<const SiteVerdict> &PA,
              const std::shared_ptr<const SiteVerdict> &PB) {
  if (PA == PB)
    return true; // Replayed facts share their sites.
  const SiteVerdict &A = *PA, &B = *PB;
  return A.Func == B.Func && A.LocalIdx == B.LocalIdx &&
         A.IsWrite == B.IsWrite && A.Degraded == B.Degraded &&
         A.Stmt == B.Stmt && A.Lockset == B.Lockset;
}

query::AnswerSource worseRung(query::AnswerSource A, query::AnswerSource B) {
  return static_cast<uint8_t>(A) >= static_cast<uint8_t>(B) ? A : B;
}

} // namespace

std::shared_ptr<const RaceCheckEngine::FunctionFacts>
RaceCheckEngine::computeFacts(const query::QuerySnapshot &Snap, FuncId F,
                              const std::vector<uint32_t> &SharedRank,
                              const std::vector<LocId> &LockSites) const {
  const Program &P = Snap.program();
  const Function &Fn = P.func(F);
  auto Facts = std::make_shared<FunctionFacts>();

  // Function-local indices: the id-free coordinate system.
  std::unordered_map<LocId, uint32_t> LocalIdx;
  LocalIdx.reserve(Fn.Locations.size());
  for (uint32_t I = 0; I < Fn.Locations.size(); ++I)
    LocalIdx[Fn.Locations[I]] = I;

  // Resolve each lock site through the snapshot's must-points-to path.
  // Fallback-served clusters answer Complete=false by construction, so
  // a BudgetHit degrades every site of the cluster to "unresolved"
  // here -- never silently dropped. A singleton allocation site is
  // unresolved too: it stands for every lock that site creates at run
  // time, so it does not name one lock.
  std::unordered_map<uint32_t, std::string> Resolved; // local idx -> name
  Facts->LockSites = static_cast<uint32_t>(LockSites.size());
  for (LocId L : LockSites) {
    const Location &Loc = P.loc(L);
    query::PointsToAnswer A = Snap.pointsToAt(Loc.Lhs, L);
    Facts->WorstRung = worseRung(Facts->WorstRung, A.Source);
    if (A.Complete && A.Objects.size() == 1 &&
        P.var(A.Objects[0]).Kind != VarKind::AllocSite)
      Resolved[LocalIdx[L]] = P.var(A.Objects[0]).Name;
    else
      ++Facts->Unresolved;
  }
  Facts->Degraded = Facts->Unresolved > 0;

  // Forward must-held dataflow over the function body (meet =
  // intersection). An unresolved site clears the whole set: an unknown
  // unlock may release anything we believe is held, so clearing is the
  // under-approximation that can only ADD reported races.
  uint32_t N = static_cast<uint32_t>(Fn.Locations.size());
  std::vector<std::set<std::string>> Held(N);
  std::vector<uint8_t> Reached(N, 0);
  Worklist WL(N);
  uint32_t Entry = LocalIdx[Fn.Entry];
  Reached[Entry] = 1;
  WL.push(Entry);
  while (!WL.empty()) {
    uint32_t LI = WL.pop();
    const Location &Loc = P.loc(Fn.Locations[LI]);
    std::set<std::string> Out = Held[LI];
    if (Loc.Kind == StmtKind::Lock || Loc.Kind == StmtKind::Unlock) {
      auto It = Resolved.find(LI);
      if (It == Resolved.end())
        Out.clear();
      else if (Loc.Kind == StmtKind::Lock)
        Out.insert(It->second);
      else
        Out.erase(It->second);
    }
    for (LocId S : Loc.Succs) {
      // Succs stay within the owning function.
      uint32_t SI = LocalIdx[S];
      bool Changed = false;
      if (!Reached[SI]) {
        Reached[SI] = 1;
        Held[SI] = Out;
        Changed = true;
      } else {
        std::set<std::string> Met;
        std::set_intersection(Held[SI].begin(), Held[SI].end(), Out.begin(),
                              Out.end(), std::inserter(Met, Met.begin()));
        if (Met != Held[SI]) {
          Held[SI] = std::move(Met);
          Changed = true;
        }
      }
      if (Changed)
        WL.push(SI);
    }
  }

  // Shared-variable access sites with the lockset held on entry to the
  // access (in layout order -- deterministic), each built once here and
  // shared by every verdict that names it.
  for (uint32_t I = 0; I < N; ++I) {
    const Location &Loc = P.loc(Fn.Locations[I]);
    if (!Loc.isPointerAssign())
      continue;
    auto Add = [&](VarId V, bool Write) {
      auto Site = std::make_shared<SiteVerdict>();
      Site->Func = Fn.Name;
      Site->LocalIdx = I;
      Site->Stmt = dumpStatement(P, Fn.Locations[I]);
      Site->IsWrite = Write;
      Site->Lockset.assign(Held[I].begin(), Held[I].end());
      Site->Degraded = Facts->Degraded;
      Facts->Accesses.push_back({SharedRank[V], std::move(Site)});
    };
    if (Loc.Lhs != InvalidVar && SharedRank[Loc.Lhs] != NotShared)
      Add(Loc.Lhs, true);
    if (Loc.Rhs != InvalidVar && Loc.Kind == StmtKind::Copy &&
        SharedRank[Loc.Rhs] != NotShared && Loc.Rhs != Loc.Lhs)
      Add(Loc.Rhs, false);
  }
  return Facts;
}

std::shared_ptr<const RaceCheckEngine::WarningBlock>
RaceCheckEngine::buildWarnings(const VarSites &E) {
  auto Block = std::make_shared<WarningBlock>();
  uint32_t NumSites = static_cast<uint32_t>(E.Sites.size());
  for (uint32_t I = 0; I < NumSites; ++I) {
    for (uint32_t J = I + 1; J < NumSites; ++J) {
      const SiteVerdict &A = *E.Sites[I];
      const SiteVerdict &B = *E.Sites[J];
      if (!A.IsWrite && !B.IsWrite)
        continue;
      if (!disjointLocksets(A.Lockset, B.Lockset))
        continue;
      RaceWarning W;
      W.Var = E.Var;
      W.A = E.Sites[I];
      W.B = E.Sites[J];
      W.Source = worseRung(E.Rungs[I], E.Rungs[J]);
      W.Id = warningId(E.Var, A.Func, A.LocalIdx, A.IsWrite, B.Func,
                       B.LocalIdx, B.IsWrite);
      W.Severity = warningSeverity(W, NumSites);
      Block->push_back(std::move(W));
    }
  }
  std::sort(Block->begin(), Block->end(),
            [](const RaceWarning &A, const RaceWarning &B) {
              return A.Id < B.Id;
            });
  return Block;
}

CheckReport
RaceCheckEngine::check(std::shared_ptr<const query::QuerySnapshot> Snap,
                       const core::UpdateReport * /*Update*/,
                       const std::vector<FunctionFingerprint> *FPs) {
  assert(Snap && "check() needs a snapshot");
  // The facts cache keys lock sites by their clusters' run keys.
  if (!Snap->hasClusterKeys())
    throw std::invalid_argument(
        "RaceCheckEngine::check needs a snapshot built from runs that "
        "carry summary-cache keys (a driver with a SummaryCache)");
  if (!FPs)
    throw std::invalid_argument(
        "RaceCheckEngine::check needs the driver's function fingerprints");
  Timer T;
  CheckReport CR;
  bool FirstCheck = UpdateOrdinal == 0;
  ++UpdateOrdinal;

  const query::QuerySnapshot &S = *Snap;
  const Program &P = S.program();
  const CallGraph &CG = S.callGraph();
  CR.Functions = P.numFuncs();

  // Shared variables: global plain ints, ranked by name. The facts key
  // hashes the sorted names, so a cached access's rank stays valid.
  std::vector<std::pair<std::string, VarId>> Shared;
  for (VarId V = 0; V < P.numVars(); ++V) {
    const Variable &Var = P.var(V);
    if (Var.Kind == VarKind::Global && !Var.isPointer() &&
        Var.Base == BaseType::Int)
      Shared.push_back({Var.Name, V});
  }
  std::sort(Shared.begin(), Shared.end());
  std::vector<uint32_t> SharedRank(P.numVars(), NotShared);
  support::ContentHasher SH;
  SH.str("bsaa-shared-set");
  for (uint32_t R = 0; R < Shared.size(); ++R) {
    SharedRank[Shared[R].second] = R;
    SH.str(Shared[R].first);
  }
  support::Digest SharedDigest = SH.digest();

  // Lock clusters, via the inverted pointer->cluster index: the only
  // clusters this checker ever consults (the paper's Section 1 claim).
  std::set<uint32_t> LockClusterIdxs;
  for (VarId V = 0; V < P.numVars(); ++V)
    if (P.var(V).isLockPointer())
      for (uint32_t CI : S.clustersOf(V))
        LockClusterIdxs.insert(CI);
  CR.LockClusters = static_cast<uint32_t>(LockClusterIdxs.size());

  // Per lock cluster: dependency-scope key + fallback flag + member
  // names. Scope-key equality across versions means the FSCS walk
  // observes identical inputs; the member names pin the object names a
  // resolution can return (scope content hashes raw ids, not names).
  std::unordered_map<uint32_t, support::Digest> ClusterKeys;
  auto clusterKeyOf = [&](uint32_t CI) -> const support::Digest & {
    auto It = ClusterKeys.find(CI);
    if (It == ClusterKeys.end()) {
      const core::Cluster &C = S.cover()[CI];
      const support::Digest &Scope = S.clusterKey(CI);
      std::set<std::string> Names;
      for (VarId M : C.Members)
        Names.insert(P.var(M).Name);
      for (const ir::Ref &R : C.TrackedRefs)
        if (R.valid())
          Names.insert(P.var(R.Var).Name);
      support::ContentHasher H;
      H.u64(Scope.Hi).u64(Scope.Lo).boolean(S.clusterNeedsFallback(CI));
      for (const std::string &Name : Names)
        H.str(Name);
      It = ClusterKeys.emplace(CI, H.digest()).first;
    }
    return It->second;
  };

  // Lock sites grouped by owning function.
  std::vector<std::vector<LocId>> SitesByFunc(P.numFuncs());
  for (LocId L = 0; L < P.numLocs(); ++L) {
    const Location &Loc = P.loc(L);
    if (Loc.Kind == StmtKind::Lock || Loc.Kind == StmtKind::Unlock) {
      SitesByFunc[Loc.Owner].push_back(L);
      ++CR.LockSites;
    }
  }

  assert(FPs->size() == P.numFuncs() && "fingerprints misaligned");

  // Caller closure digest: a must-points-to query at a site in F can
  // ascend into callers*(F), so their bodies are inputs to F's facts.
  auto callerClosureDigest = [&](FuncId F) {
    std::vector<uint8_t> In(P.numFuncs(), 0);
    std::vector<FuncId> Stack{F};
    In[F] = 1;
    std::vector<FuncId> Closure;
    while (!Stack.empty()) {
      FuncId G = Stack.back();
      Stack.pop_back();
      Closure.push_back(G);
      for (FuncId C : CG.callers(G))
        if (!In[C]) {
          In[C] = 1;
          Stack.push_back(C);
        }
    }
    std::vector<std::pair<std::string, support::Digest>> Pairs;
    Pairs.reserve(Closure.size());
    for (FuncId G : Closure)
      Pairs.push_back({(*FPs)[G].Name, (*FPs)[G].Content});
    std::sort(Pairs.begin(), Pairs.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    support::ContentHasher H;
    for (auto &Pr : Pairs)
      H.str(Pr.first).u64(Pr.second.Hi).u64(Pr.second.Lo);
    return H.digest();
  };

  // Per-function facts: replay from the content-keyed cache or
  // recompute.
  std::vector<std::shared_ptr<const FunctionFacts>> AllFacts(P.numFuncs());
  for (FuncId F = 0; F < P.numFuncs(); ++F) {
    support::ContentHasher H;
    H.str("bsaa-race-facts");
    H.u64((*FPs)[F].Content.Hi).u64((*FPs)[F].Content.Lo);
    H.u64(SharedDigest.Hi).u64(SharedDigest.Lo);
    if (!SitesByFunc[F].empty()) {
      support::Digest Callers = callerClosureDigest(F);
      H.u64(Callers.Hi).u64(Callers.Lo);
      for (LocId L : SitesByFunc[F]) {
        const Location &Loc = P.loc(L);
        H.boolean(Loc.Kind == StmtKind::Lock);
        H.str(P.var(Loc.Lhs).Name);
        for (uint32_t CI : S.clustersOf(Loc.Lhs)) {
          const support::Digest &CK = clusterKeyOf(CI);
          H.u64(CK.Hi).u64(CK.Lo);
        }
      }
    }
    support::Digest Key = H.digest();
    auto It = FactsCache.find(Key);
    if (It != FactsCache.end()) {
      It->second.LastUsed = UpdateOrdinal;
      AllFacts[F] = It->second.Facts;
      ++CR.FunctionsFromCache;
    } else {
      AllFacts[F] = computeFacts(S, F, SharedRank, SitesByFunc[F]);
      FactsCache[Key] = {AllFacts[F], UpdateOrdinal};
      ++CR.FunctionsChecked;
    }
    CR.UnresolvedLockSites += AllFacts[F]->Unresolved;
  }

  // Access-site index: shared variable -> every access site, in
  // (function id, layout) order -- deterministic, and identical
  // between a cold run and an incremental replay over the same
  // program.
  std::vector<VarSites> Vars(Shared.size());
  for (uint32_t R = 0; R < Shared.size(); ++R)
    Vars[R].Var = std::move(Shared[R].first);
  uint32_t DegradedFunctions = 0;
  for (FuncId F = 0; F < P.numFuncs(); ++F) {
    const FunctionFacts &Facts = *AllFacts[F];
    if (Facts.Degraded)
      ++DegradedFunctions;
    for (const AccessFact &A : Facts.Accesses) {
      Vars[A.Var].Sites.push_back(A.Site);
      Vars[A.Var].Rungs.push_back(Facts.WorstRung);
    }
  }

  // Pair every variable with its previous entry (both lists are in
  // name order). A variable whose sites and rungs are unchanged keeps
  // its block; every other one -- changed, new, or gone from the
  // shared set -- is re-ranked, and its old and new blocks give its
  // share of the delta (IDs hash the variable name, so no warning ID
  // is shared between variables).
  std::vector<uint8_t> KeepPrev(PrevVars.size(), 0);
  std::vector<uint32_t> PrevToNew(PrevVars.size(), NotShared);
  // The re-built warnings, each with its variable's index in Vars.
  std::vector<std::pair<const RaceWarning *, uint32_t>> Fresh;
  static const WarningBlock NoWarnings;
  auto diffBlocks = [&](const WarningBlock &Old, const WarningBlock &New) {
    if (FirstCheck)
      return; // Everything is added; taken from the ranked report below.
    // Both sorted by ID.
    size_t I = 0, J = 0;
    while (I < Old.size() || J < New.size()) {
      if (J == New.size() || (I < Old.size() && Old[I].Id < New[J].Id))
        CR.Delta.Retracted.push_back(Old[I++]);
      else if (I == Old.size() || New[J].Id < Old[I].Id)
        CR.Delta.Added.push_back(New[J++]);
      else
        ++I, ++J;
    }
  };
  uint32_t PI = 0;
  for (uint32_t R = 0; R <= Vars.size(); ++R) {
    for (; PI < PrevVars.size() &&
           (R == Vars.size() || PrevVars[PI].Var < Vars[R].Var);
         ++PI)
      diffBlocks(*PrevVars[PI].Warnings, NoWarnings);
    if (R == Vars.size())
      break;
    VarSites &E = Vars[R];
    const VarSites *Prev = nullptr;
    if (PI < PrevVars.size() && PrevVars[PI].Var == E.Var)
      Prev = &PrevVars[PI++];
    if (Prev && Prev->Rungs == E.Rungs &&
        std::equal(E.Sites.begin(), E.Sites.end(), Prev->Sites.begin(),
                   Prev->Sites.end(), sameSite)) {
      E.Warnings = Prev->Warnings;
      KeepPrev[PI - 1] = 1;
      PrevToNew[PI - 1] = R;
      continue;
    }
    E.Warnings = buildWarnings(E);
    diffBlocks(Prev ? *Prev->Warnings : NoWarnings, *E.Warnings);
    for (const RaceWarning &W : *E.Warnings)
      Fresh.push_back({&W, R});
  }

  // Rank the re-built warnings (on the first check: all of them) and
  // merge them into what the previous report keeps.
  std::sort(Fresh.begin(), Fresh.end(), [](const auto &A, const auto &B) {
    return rankedBefore(*A.first, *B.first);
  });
  std::vector<RaceWarning> FreshRanked;
  FreshRanked.reserve(Fresh.size());
  for (const auto &[W, R] : Fresh)
    FreshRanked.push_back(*W);
  std::shared_ptr<const RaceReport> Old = report();
  const WarningBlock &OldWarnings = Old ? Old->Warnings : NoWarnings;
  assert(WarningVars.size() == OldWarnings.size() && "report out of sync");
  std::vector<uint8_t> Keep(OldWarnings.size());
  for (size_t I = 0; I < OldWarnings.size(); ++I)
    Keep[I] = KeepPrev[WarningVars[I]];
  std::vector<uint32_t> From;
  auto NewReport = std::make_shared<RaceReport>();
  NewReport->SharedVariables = static_cast<uint32_t>(Vars.size());
  NewReport->LockClusters = CR.LockClusters;
  NewReport->DegradedFunctions = DegradedFunctions;
  NewReport->Warnings = mergeRankedWarnings(
      OldWarnings, Keep, std::move(FreshRanked), From);
  std::vector<uint32_t> NewWarningVars(From.size());
  for (size_t I = 0; I < From.size(); ++I)
    NewWarningVars[I] = From[I] < OldWarnings.size()
                            ? PrevToNew[WarningVars[From[I]]]
                            : Fresh[From[I] - OldWarnings.size()].second;

  // The delta in the orders of the reports it came from.
  if (FirstCheck) {
    CR.Delta.Added = NewReport->Warnings;
  } else {
    rankWarnings(CR.Delta.Added);
    rankWarnings(CR.Delta.Retracted);
  }
  CR.Warnings = static_cast<uint32_t>(NewReport->Warnings.size());
  CR.WarningsAdded = static_cast<uint32_t>(CR.Delta.Added.size());
  CR.WarningsRetracted = static_cast<uint32_t>(CR.Delta.Retracted.size());
  PrevVars = std::move(Vars);
  WarningVars = std::move(NewWarningVars);
  {
    std::lock_guard<std::mutex> Lock(ReportMutex);
    Current = std::move(NewReport);
  }

  // Evict facts that sat unused past the horizon.
  for (auto It = FactsCache.begin(); It != FactsCache.end();)
    if (It->second.LastUsed + FactsKeepUpdates < UpdateOrdinal)
      It = FactsCache.erase(It);
    else
      ++It;

  CR.CheckSeconds = T.seconds();
  return CR;
}

//===----------------------------------------------------------------------===//
// RaceCheckService
//===----------------------------------------------------------------------===//

RaceCheckService::RaceCheckService(core::BootstrapOptions BOpts,
                                   query::QueryOptions QOpts)
    : Service(std::move(BOpts), std::move(QOpts)) {}

CheckReport RaceCheckService::update(std::unique_ptr<ir::Program> NewProg) {
  core::UpdateReport Report = Service.update(std::move(NewProg));
  return Eng.check(Service.engine().snapshot(), &Report,
                   &Service.driver().functionFingerprints());
}
