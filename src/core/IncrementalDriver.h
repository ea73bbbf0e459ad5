//===- core/IncrementalDriver.h - Fingerprint-keyed re-analysis -*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental re-analysis across program versions. The driver keeps
/// the previous version's solved state and process-wide caches alive;
/// update() takes the next program version, diffs per-function content
/// fingerprints, and re-runs the cascade so that
///
///  * Steensgaard is *adopted* (copied, not re-solved) whenever the
///    edit left every partition-relevant statement intact
///    (ir::partitionRelevantFingerprint gate),
///  * Andersen refinements of oversized partitions replay from the
///    content-addressed RefinementCache, and
///  * per-cluster FSCS runs replay from the SummaryCache through
///    dependency-scope keys (core/ClusterDependencies.h). The key is
///    the only invalidation mechanism: a cluster re-analyzes exactly
///    when its key misses, i.e. when something its run reads changed:
///    a body in its dependency cone, its members or slice, or the
///    Steensgaard facts it consults.
///
/// Everything reused is content-addressed, so the produced
/// BootstrapResult is *byte-identical* (module wall-clock timings and
/// cache counters) to a cold full re-run over the same program -- the
/// correctness oracle tests/test_incremental.cpp enforces.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_CORE_INCREMENTALDRIVER_H
#define BSAA_CORE_INCREMENTALDRIVER_H

#include "core/BootstrapDriver.h"
#include "ir/Fingerprint.h"

#include <memory>
#include <string>
#include <vector>

namespace bsaa {
namespace core {

/// What one update() did and what it reused.
struct UpdateReport {
  /// Function-level delta against the previous version (empty on the
  /// first update).
  std::vector<std::string> ChangedFunctions;
  std::vector<std::string> AddedFunctions;
  std::vector<std::string> RemovedFunctions;

  uint32_t NumClusters = 0;
  /// Clusters that actually re-ran SummaryEngine this update.
  uint32_t ClustersReanalyzed = 0;
  /// Clusters replayed from the summary cache (dependency-scope key).
  uint32_t ClustersFromCache = 0;

  /// Steensgaard was copied from the previous version instead of
  /// re-solved (partition-relevant fingerprints matched).
  bool SteensgaardAdopted = false;

  double Seconds = 0; ///< Wall-clock of this update's pipeline.
};

/// Owns the current program version, its solve, and the process-wide
/// caches reused across versions.
///
/// Note update() clears the global Statistics registry before running,
/// so the statistics section of toStatsJson(lastResult()) describes
/// exactly the latest version -- and compares byte-identically against
/// a cold run that does the same.
class IncrementalDriver {
public:
  /// \p Opts is the per-version driver configuration. SummaryCache and
  /// AndersenRefinementCache are created if absent.
  explicit IncrementalDriver(BootstrapOptions Opts);

  /// Analyzes \p NewProg, reusing whatever the fingerprints prove
  /// reusable from previous versions. Returns the pipeline result for
  /// the new version (also retained, see lastResult()).
  const BootstrapResult &update(std::unique_ptr<ir::Program> NewProg,
                                UpdateReport *Report = nullptr);

  const BootstrapResult &lastResult() const { return Result; }
  const ir::Program &program() const { return *Prog; }

  /// Shared ownership of the current program version. Query-serving
  /// snapshots (query/QuerySnapshot.h) co-own the program through this
  /// pointer, so readers of an old snapshot stay valid while update()
  /// commits a new version.
  std::shared_ptr<const ir::Program> programPtr() const { return Prog; }

  /// The latest version's call graph, Steensgaard solve and the cover
  /// the cascade analyzed (Clusters aligned index-for-index with
  /// lastResult().Clusters). Query-serving snapshots co-own it, so one
  /// solve serves the whole version. Null before the first update().
  std::shared_ptr<const SolvedCover> lastCover() const { return Cover; }

  /// The effective per-version configuration (caches created by the
  /// constructor included).
  const BootstrapOptions &options() const { return BaseOpts; }

  /// Per-function content fingerprints of the current version, indexed
  /// by FuncId -- the same vector update() diffed to produce its
  /// report, so downstream incremental clients (racecheck) key their
  /// own caches without re-fingerprinting.
  const std::vector<ir::FunctionFingerprint> &functionFingerprints() const {
    return FuncFPs;
  }

  /// The statistics registry this driver's updates accumulate into and
  /// clear (BootstrapOptions::StatsRegistry, or Statistics::global()
  /// when none was configured). Pass it as toStatsJson's \p Stats to
  /// render this driver's statistics section.
  Statistics &statsRegistry() const;

private:
  BootstrapOptions BaseOpts;
  std::shared_ptr<ir::Program> Prog;
  BootstrapResult Result;
  std::shared_ptr<const SolvedCover> Cover;
  std::vector<ir::FunctionFingerprint> FuncFPs;
  uint64_t PartitionFP = 0;
};

} // namespace core
} // namespace bsaa

#endif // BSAA_CORE_INCREMENTALDRIVER_H
