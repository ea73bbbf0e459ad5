//===- racecheck/RaceReport.h - Ranked, diffable race verdicts --*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verdict side of the incremental race checker: a deterministic,
/// ranked set of warnings with IDs that are stable across edit batches.
///
/// Coordinates are deliberately id-free. VarIds and LocIds renumber
/// globally on every frontend run, so a warning names its sites as
/// (function name, function-local statement index) and its variables
/// by name. Two consequences:
///  - the same source-level race yields the same warning ID before and
///    after an unrelated edit, so a dashboard can track it over time;
///  - diffing two reports (races added / retracted by an edit batch)
///    is a plain ID set difference.
///
/// Ranking is deterministic: severity descending, then ID ascending.
/// Severity rewards hot shared variables (access-site count), pairs
/// where both sides write, verdicts built entirely from must-resolved
/// locks (no degraded site), and verdicts whose lock resolution stayed
/// on the FSCS rung of the cascade (strongest provenance). Warning IDs
/// are unique within a report, so the order is total: a re-ranked
/// subset merged into the kept rest of a ranked report
/// (mergeRankedWarnings) equals ranking the whole set again.
///
/// Sites are immutable and shared: a warning points at its two
/// SiteVerdicts, which the checker builds once per access site and
/// shares between every warning, report and cache entry that names
/// the site.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_RACECHECK_RACEREPORT_H
#define BSAA_RACECHECK_RACEREPORT_H

#include "query/QuerySnapshot.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace bsaa {
namespace racecheck {

/// One side of a race: an access to a shared variable.
struct SiteVerdict {
  /// Owning function name.
  std::string Func;
  /// Index of the statement within Func's layout-ordered location
  /// list -- stable across re-frontends of unchanged code.
  uint32_t LocalIdx = 0;
  /// Rendered statement text (for humans; not part of the ID).
  std::string Stmt;
  bool IsWrite = false;
  /// Lock object names definitely held at the access (sorted).
  std::vector<std::string> Lockset;
  /// True when any lock operation feeding this site's lockset could
  /// not be must-resolved (the lockset was conservatively cleared).
  bool Degraded = false;
};

/// A ranked warning: two accesses to one shared variable with disjoint
/// locksets, at least one a write.
struct RaceWarning {
  /// Stable 16-hex-digit ID derived from the id-free coordinates
  /// (variable name + both sites' function/local-index/kind).
  std::string Id;
  uint32_t Severity = 0;
  std::string Var;
  /// The two sides (never null in a published report).
  std::shared_ptr<const SiteVerdict> A, B;
  /// Weakest cascade rung that contributed lock resolution to either
  /// side (Fscs when fully must-resolved; Andersen/Steensgaard when a
  /// budget fallback degraded a site).
  query::AnswerSource Source = query::AnswerSource::Fscs;
};

/// The published verdict set for one program version.
struct RaceReport {
  /// Warnings ranked: severity descending, ID ascending.
  std::vector<RaceWarning> Warnings;
  uint32_t SharedVariables = 0;
  uint32_t LockClusters = 0;
  /// Functions with at least one unresolved lock operation.
  uint32_t DegradedFunctions = 0;

  const RaceWarning *findById(const std::string &Id) const;
};

/// Verdict churn between two report versions, by warning ID.
struct ReportDelta {
  std::vector<RaceWarning> Added;
  std::vector<RaceWarning> Retracted;
};

/// Stable warning ID: hash of the id-free coordinates with the two
/// sites in canonical (lexicographic) order, so A/B orientation never
/// changes the ID.
std::string warningId(const std::string &Var, const std::string &FuncA,
                      uint32_t IdxA, bool WriteA, const std::string &FuncB,
                      uint32_t IdxB, bool WriteB);

/// Severity used for ranking; pure function of the warning's verdict
/// data plus the total access-site count of its variable.
uint32_t warningSeverity(const RaceWarning &W, uint32_t VarAccessSites);

/// The canonical rank order: severity descending, then ID ascending.
bool rankedBefore(const RaceWarning &A, const RaceWarning &B);

/// Sorts \p Warnings into the canonical rank order.
void rankWarnings(std::vector<RaceWarning> &Warnings);

/// Merges two ranked runs into one: the warnings Old[I] whose Keep[I]
/// is set, and all of \p Fresh. The result equals rankWarnings over
/// the same warnings. \p From receives, per merged warning, its
/// source: I for Old[I], Old.size() + J for Fresh[J].
std::vector<RaceWarning>
mergeRankedWarnings(const std::vector<RaceWarning> &Old,
                    const std::vector<uint8_t> &Keep,
                    std::vector<RaceWarning> Fresh,
                    std::vector<uint32_t> &From);

/// ID-set difference New \ Old (Added) and Old \ New (Retracted);
/// both outputs in rank order of their source report. The reference
/// for the checker's per-variable delta (CheckReport::Delta).
ReportDelta diffReports(const RaceReport &Old, const RaceReport &New);

/// Single-line JSON rendering of the verdict set. Contains no timings
/// or cache counters, so an incremental re-check and a cold batch run
/// over the same program must produce byte-identical output -- this is
/// the differential oracle's comparison key.
std::string toReportJson(const RaceReport &R);

} // namespace racecheck
} // namespace bsaa

#endif // BSAA_RACECHECK_RACEREPORT_H
