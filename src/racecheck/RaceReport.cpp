//===- racecheck/RaceReport.cpp - Ranked, diffable race verdicts ----------===//

#include "racecheck/RaceReport.h"

#include "support/ContentHash.h"
#include "support/Json.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <unordered_set>

using namespace bsaa;
using namespace bsaa::racecheck;

const RaceWarning *RaceReport::findById(const std::string &Id) const {
  for (const RaceWarning &W : Warnings)
    if (W.Id == Id)
      return &W;
  return nullptr;
}

std::string racecheck::warningId(const std::string &Var,
                                 const std::string &FuncA, uint32_t IdxA,
                                 bool WriteA, const std::string &FuncB,
                                 uint32_t IdxB, bool WriteB) {
  // Canonical site order so the ID is orientation-free.
  bool Swap = std::tie(FuncB, IdxB) < std::tie(FuncA, IdxA);
  const std::string &F1 = Swap ? FuncB : FuncA;
  const std::string &F2 = Swap ? FuncA : FuncB;
  uint32_t I1 = Swap ? IdxB : IdxA;
  uint32_t I2 = Swap ? IdxA : IdxB;
  bool W1 = Swap ? WriteB : WriteA;
  bool W2 = Swap ? WriteA : WriteB;

  support::ContentHasher H;
  H.str("bsaa-race-warning")
      .str(Var)
      .str(F1)
      .u32(I1)
      .boolean(W1)
      .str(F2)
      .u32(I2)
      .boolean(W2);
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H.digest().Lo));
  return std::string(Buf);
}

uint32_t racecheck::warningSeverity(const RaceWarning &W,
                                    uint32_t VarAccessSites) {
  // Hot variables dominate; verdict quality breaks ties.
  uint32_t Sev = 100 * std::min<uint32_t>(VarAccessSites, 1000);
  if (W.A->IsWrite && W.B->IsWrite)
    Sev += 50; // Write-write: definite corruption if real.
  if (!W.A->Degraded && !W.B->Degraded)
    Sev += 25; // Fully must-resolved locks: high-confidence verdict.
  if (W.Source == query::AnswerSource::Fscs)
    Sev += 10; // Strongest cascade rung backed the resolution.
  return Sev;
}

bool racecheck::rankedBefore(const RaceWarning &A, const RaceWarning &B) {
  if (A.Severity != B.Severity)
    return A.Severity > B.Severity;
  return A.Id < B.Id;
}

void racecheck::rankWarnings(std::vector<RaceWarning> &Warnings) {
  std::sort(Warnings.begin(), Warnings.end(), rankedBefore);
}

std::vector<RaceWarning>
racecheck::mergeRankedWarnings(const std::vector<RaceWarning> &Old,
                               const std::vector<uint8_t> &Keep,
                               std::vector<RaceWarning> Fresh,
                               std::vector<uint32_t> &From) {
  assert(Keep.size() == Old.size() && "one keep flag per old warning");
  std::vector<RaceWarning> Out;
  Out.reserve(Old.size() + Fresh.size());
  From.clear();
  From.reserve(Out.capacity());
  uint32_t NOld = static_cast<uint32_t>(Old.size());
  uint32_t I = 0, J = 0;
  while (true) {
    while (I < NOld && !Keep[I])
      ++I;
    if (I == NOld && J == Fresh.size())
      break;
    if (J == Fresh.size() ||
        (I < NOld && rankedBefore(Old[I], Fresh[J]))) {
      Out.push_back(Old[I]);
      From.push_back(I++);
    } else {
      Out.push_back(std::move(Fresh[J]));
      From.push_back(NOld + J++);
    }
  }
  return Out;
}

ReportDelta racecheck::diffReports(const RaceReport &Old,
                                   const RaceReport &New) {
  ReportDelta D;
  std::unordered_set<std::string> OldIds, NewIds;
  for (const RaceWarning &W : Old.Warnings)
    OldIds.insert(W.Id);
  for (const RaceWarning &W : New.Warnings)
    NewIds.insert(W.Id);
  for (const RaceWarning &W : New.Warnings)
    if (!OldIds.count(W.Id))
      D.Added.push_back(W);
  for (const RaceWarning &W : Old.Warnings)
    if (!NewIds.count(W.Id))
      D.Retracted.push_back(W);
  return D;
}

namespace {

void appendSite(support::JsonWriter &W, const SiteVerdict &S) {
  W.beginObject()
      .field("func", S.Func)
      .field("site", S.LocalIdx)
      .field("stmt", S.Stmt)
      .field("write", S.IsWrite)
      .field("degraded", S.Degraded);
  W.key("lockset").beginArray();
  for (const std::string &L : S.Lockset)
    W.value(L);
  W.endArray().endObject();
}

} // namespace

std::string racecheck::toReportJson(const RaceReport &R) {
  support::JsonWriter W;
  W.beginObject().key("racecheck").beginObject();
  W.field("shared_variables", R.SharedVariables)
      .field("lock_clusters", R.LockClusters)
      .field("degraded_functions", R.DegradedFunctions);
  W.key("warnings").beginArray();
  for (const RaceWarning &Warn : R.Warnings) {
    W.beginObject()
        .field("id", Warn.Id)
        .field("severity", Warn.Severity)
        .field("var", Warn.Var)
        .field("source", query::answerSourceName(Warn.Source));
    appendSite(W.key("a"), *Warn.A);
    appendSite(W.key("b"), *Warn.B);
    W.endObject();
  }
  W.endArray().endObject().endObject();
  return W.str();
}
