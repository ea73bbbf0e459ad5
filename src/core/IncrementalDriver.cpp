//===- core/IncrementalDriver.cpp - Fingerprint-keyed re-analysis ---------===//

#include "core/IncrementalDriver.h"

#include "core/StoreCodecs.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include <utility>

using namespace bsaa;
using namespace bsaa::core;
using namespace bsaa::ir;

IncrementalDriver::IncrementalDriver(BootstrapOptions Opts)
    : BaseOpts(std::move(Opts)) {
  if (!BaseOpts.SummaryCache)
    BaseOpts.SummaryCache = std::make_shared<fscs::SummaryCache>();
  if (!BaseOpts.AndersenRefinementCache)
    BaseOpts.AndersenRefinementCache = std::make_shared<RefinementCache>();
  // Persistence wiring: with a store configured, also give the slice
  // cache a home (otherwise optional here), then back every cache with
  // the store.
  if ((BaseOpts.Store || !BaseOpts.StorePath.empty()) &&
      !BaseOpts.RelevantSliceCache)
    BaseOpts.RelevantSliceCache = std::make_shared<SliceCache>();
  openStoreAndAttach(BaseOpts);
}

Statistics &IncrementalDriver::statsRegistry() const {
  return BaseOpts.StatsRegistry ? *BaseOpts.StatsRegistry
                                : Statistics::global();
}

const BootstrapResult &
IncrementalDriver::update(std::unique_ptr<ir::Program> NewProg,
                          UpdateReport *Report) {
  Timer T;
  std::vector<FunctionFingerprint> NewFPs = ir::functionFingerprints(*NewProg);
  ProgramDelta Delta = computeDelta(FuncFPs, NewFPs);
  uint64_t NewPartitionFP = partitionRelevantFingerprint(*NewProg);

  BootstrapOptions Opts = BaseOpts;
  // Adoption gate: the Steensgaard solution is a pure function of the
  // partition-relevant fingerprint's inputs, so equality makes the
  // previous solve valid verbatim for the new program.
  bool Adopt = Cover != nullptr && PartitionFP == NewPartitionFP;
  if (Adopt)
    Opts.AdoptSteensgaard = Cover->Steens.get();

  // Each update's statistics describe exactly that version (and match
  // a cold run that clears the registry the same way). With a
  // per-driver StatsRegistry this is re-entrant across drivers --
  // concurrent tenants each clear only their own epoch; on the shared
  // global registry it is only safe for one updating driver per
  // process.
  statsRegistry().clear();

  // The driver lives for this update only; its solve outlives it in the
  // SolvedCover. The solve adopted from stays alive in Cover.
  BootstrapDriver NewDriver(*NewProg, Opts);
  std::shared_ptr<const SolvedCover> NewCover = NewDriver.buildSolvedCover();

  if (Report) {
    Report->ChangedFunctions.clear();
    Report->AddedFunctions.clear();
    Report->RemovedFunctions.clear();
    if (Cover) {
      Report->ChangedFunctions = Delta.Changed;
      Report->AddedFunctions = Delta.Added;
      Report->RemovedFunctions = Delta.Removed;
    }
    Report->SteensgaardAdopted = Adopt;
  }

  BootstrapResult NewResult = NewDriver.runAll(NewCover->Clusters);

  if (Report) {
    Report->NumClusters = NewResult.NumClusters;
    Report->ClustersReanalyzed = 0;
    Report->ClustersFromCache = 0;
    for (const ClusterRunResult &C : NewResult.Clusters) {
      if (C.FromCache)
        ++Report->ClustersFromCache;
      else
        ++Report->ClustersReanalyzed;
    }
  }

  // Commit the new version. The old program and solves die with the
  // last query snapshot co-owning them (programPtr(), lastCover()).
  Prog = std::shared_ptr<ir::Program>(std::move(NewProg));
  Result = std::move(NewResult);
  Cover = std::move(NewCover);
  FuncFPs = std::move(NewFPs);
  PartitionFP = NewPartitionFP;

  if (Report)
    Report->Seconds = T.seconds();
  return Result;
}
