//===- racecheck/RaceCheckEngine.h - Incremental race checking --*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The race checker: the paper's motivating application (Section 1),
/// lockset analysis as a *client of the serving stack*. It is the only
/// lockset implementation in the repo; a one-shot check is a
/// RaceCheckService's first update() over a cold snapshot. Across a
/// stream of program versions it touches only what each edit batch
/// invalidated.
///
/// Per published QuerySnapshot the engine:
///
///  1. restricts attention to the lock-pointer clusters of the cover
///     (found through the snapshot's inverted pointer->cluster index);
///  2. resolves each lock(p)/unlock(p) through the snapshot's
///     must-points-to path. A site whose answer is not a *complete
///     singleton* -- genuine ambiguity, or a BudgetHit/Approximated
///     cluster served through the Andersen/Steensgaard fallback chain
///     (Complete=false by construction) -- or whose singleton is an
///     allocation site (one abstract object for every lock that site
///     creates) degrades soundly to "unknown lock => empty lockset":
///     the must-held set is cleared where the site executes, which can
///     only ADD reported races;
///  3. runs the per-function forward lockset dataflow and collects
///     shared-variable access sites, caching the result per function
///     under a content key: the function's shift-invariant fingerprint,
///     the shared-variable set, the (name, fingerprint) closure of its
///     transitive callers (a must-points-to query at a site in F can
///     ascend into callers*(F)), and per lock site the operand name
///     plus the scope keys + fallback flags + member names of the
///     operand's clusters. Key equality implies the FSCS walk observes
///     identical inputs, so cached facts replay verbatim; everything in
///     the key is id-free or covered by the scope digest, so entries
///     survive the global VarId/LocId renumbering every edit causes;
///  4. assembles the verdicts through an access-site index (shared
///     variable -> all access sites, each an immutable SiteVerdict
///     built once with its function's facts). A variable whose sites
///     and rungs are unchanged keeps its warning block (shared, not
///     copied); only changed, new and vanished variables are re-ranked.
///     The new report merges those re-ranked warnings into the kept
///     rest of the previous one, and the delta (warnings added /
///     retracted) is the per-variable difference of the changed
///     variables' old and new blocks -- both byte-identical to ranking
///     and diffing the whole report, at a cost that follows the edit.
///     The report is published by an atomic swap.
///
/// RaceCheckService glues this to query::AliasService: every update()
/// re-analyzes incrementally, publishes the alias snapshot, and then
/// re-checks races over that snapshot -- the repo's first "edit stream
/// in, updated verdicts out" scenario.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_RACECHECK_RACECHECKENGINE_H
#define BSAA_RACECHECK_RACECHECKENGINE_H

#include "core/IncrementalDriver.h"
#include "query/QueryEngine.h"
#include "racecheck/RaceReport.h"
#include "support/ContentHash.h"

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace bsaa {
namespace racecheck {

/// What one re-check did and what it reused.
struct CheckReport {
  uint32_t Functions = 0;
  /// Functions whose lockset facts were recomputed this round.
  uint32_t FunctionsChecked = 0;
  /// Functions whose facts replayed from the content-keyed cache. The
  /// facts-cache keys alone decide which functions re-run.
  uint32_t FunctionsFromCache = 0;

  uint32_t LockClusters = 0;
  uint32_t LockSites = 0;
  /// Lock sites degraded to "unknown lock => empty lockset".
  uint32_t UnresolvedLockSites = 0;

  uint32_t Warnings = 0;
  uint32_t WarningsAdded = 0;
  uint32_t WarningsRetracted = 0;
  /// The verdict churn itself (ranked like the reports it came from).
  ReportDelta Delta;

  /// Wall-clock of the re-check alone (excludes the alias update).
  double CheckSeconds = 0;
};

/// Long-lived incremental checker over a stream of QuerySnapshots.
class RaceCheckEngine {
public:
  /// Re-checks races over \p Snap and publishes the new RaceReport.
  /// \p Snap must carry its runs' summary-cache keys
  /// (QuerySnapshot::hasClusterKeys; e.g. built from an
  /// IncrementalDriver's runs), else std::invalid_argument is thrown.
  /// \p Update, the alias-layer report of the edit batch that produced
  /// \p Snap (or null), is not read: the facts-cache keys alone decide
  /// what re-runs. \p FPs are the driver's
  /// function fingerprints for the same program
  /// (IncrementalDriver::functionFingerprints); null throws
  /// std::invalid_argument.
  CheckReport check(std::shared_ptr<const query::QuerySnapshot> Snap,
                    const core::UpdateReport *Update,
                    const std::vector<ir::FunctionFingerprint> *FPs);

  /// The last published verdict set (never null after the first
  /// check()); safe to read while check() publishes a newer one.
  std::shared_ptr<const RaceReport> report() const;

  /// Drops caches, the published report, and the warning history --
  /// the next check() behaves like a cold first run.
  void reset();

private:
  /// One shared-variable access site. Everything in it is a function
  /// of the facts-cache key (the key hashes the function's name and
  /// body, variable names included, and the shared-variable set), so
  /// a replayed entry's sites are valid verbatim.
  struct AccessFact {
    /// Rank of the variable's name among the sorted shared names.
    uint32_t Var = 0;
    std::shared_ptr<const SiteVerdict> Site;
  };

  /// Cached per-function lockset dataflow result.
  struct FunctionFacts {
    std::vector<AccessFact> Accesses; ///< In layout order.
    uint32_t LockSites = 0;
    uint32_t Unresolved = 0;
    bool Degraded = false; ///< Any lock site unresolved.
    /// Weakest cascade rung consulted while resolving lock sites.
    query::AnswerSource WorstRung = query::AnswerSource::Fscs;
  };

  struct CacheEntry {
    std::shared_ptr<const FunctionFacts> Facts;
    uint64_t LastUsed = 0;
  };

  /// A variable's warnings, sorted by ID. Immutable: a variable whose
  /// sites and rungs are unchanged shares its block across updates.
  using WarningBlock = std::vector<RaceWarning>;

  /// Access-site index entry for one shared variable.
  struct VarSites {
    std::string Var;
    std::vector<std::shared_ptr<const SiteVerdict>> Sites;
    std::vector<query::AnswerSource> Rungs; ///< Aligned with Sites.
    std::shared_ptr<const WarningBlock> Warnings;
  };

  std::shared_ptr<const FunctionFacts>
  computeFacts(const query::QuerySnapshot &Snap, ir::FuncId F,
               const std::vector<uint32_t> &SharedRank,
               const std::vector<ir::LocId> &LockSites) const;

  /// The warnings over \p E's sites, sorted by ID.
  static std::shared_ptr<const WarningBlock> buildWarnings(const VarSites &E);

  /// Facts-cache entries unused for this many updates are evicted.
  static constexpr uint64_t FactsKeepUpdates = 16;

  uint64_t UpdateOrdinal = 0;

  std::unordered_map<support::Digest, CacheEntry, support::DigestHash>
      FactsCache;
  /// Per shared variable of the published report, in name order.
  std::vector<VarSites> PrevVars;
  /// Per warning of the published report: its variable's PrevVars
  /// index.
  std::vector<uint32_t> WarningVars;

  mutable std::mutex ReportMutex;
  std::shared_ptr<const RaceReport> Current;
};

/// AliasService + RaceCheckEngine: one update() call re-analyzes the
/// program incrementally, atomically publishes the alias snapshot, and
/// republishes the diffed race verdicts.
class RaceCheckService {
public:
  explicit RaceCheckService(core::BootstrapOptions BOpts,
                            query::QueryOptions QOpts = query::QueryOptions());

  /// Analyzes \p NewProg (incrementally against the previous version),
  /// publishes the alias snapshot, re-checks races, and returns what
  /// the re-check did.
  CheckReport update(std::unique_ptr<ir::Program> NewProg);

  /// The served alias layer (snapshot queries, batch evaluation).
  query::AliasService &alias() { return Service; }
  const query::AliasService &alias() const { return Service; }

  RaceCheckEngine &engine() { return Eng; }

  /// The current verdict set (never null after the first update()).
  std::shared_ptr<const RaceReport> report() const { return Eng.report(); }

private:
  query::AliasService Service;
  RaceCheckEngine Eng;
};

} // namespace racecheck
} // namespace bsaa

#endif // BSAA_RACECHECK_RACECHECKENGINE_H
