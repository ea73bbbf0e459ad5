//===- examples/race_detection.cpp - The motivating application -----------===//
//
// The paper's Section 1 motivation: static data race detection needs
// must-aliases of lock pointers only, so the bootstrapping framework
// analyzes just the lock-pointer clusters. This example drives the
// *incremental* checker (racecheck::RaceCheckService): analyze a small
// "driver" with one real race, then apply the fix and watch the
// warning retract -- verdicts update per edit, not per full re-run.
//
// Build and run:  ./build/examples/race_detection
//                 ./build/examples/race_detection --replay 20
//
// --replay N generates a synthetic lock-heavy workload and replays an
// N-edit stream through the service, printing what each re-check
// recomputed versus replayed from cache.
//
//===----------------------------------------------------------------------===//

#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "racecheck/RaceCheckEngine.h"
#include "workload/ProgramGenerator.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

using namespace bsaa;
using namespace bsaa::racecheck;

namespace {

// One unprotected write to list_head; dev_state is protected
// everywhere (including through an aliased lock pointer).
const char *Buggy = R"(
  lock_t dev_lock;
  lock_t list_lock;
  int dev_state;     // Protected by dev_lock everywhere: no race.
  int list_head;     // One unprotected write: race.

  void update_dev(lock_t *l) {
    lock(l);
    dev_state = 1;
    unlock(l);
  }

  void update_list(lock_t *l) {
    lock(l);
    list_head = 1;
    unlock(l);
  }

  void main(void) {
    lock_t *dl; lock_t *ll; lock_t *alias;
    dl = &dev_lock;
    ll = &list_lock;
    alias = dl;          // Aliased lock pointer: same protection.
    lock(alias);
    dev_state = 2;
    unlock(alias);
    update_dev(dl);
    update_list(ll);
    list_head = 2;       // RACE: no lock held here.
  }
)";

// The fix: the trailing list_head write now takes list_lock.
const char *Fixed = R"(
  lock_t dev_lock;
  lock_t list_lock;
  int dev_state;     // Protected by dev_lock everywhere: no race.
  int list_head;     // Now protected everywhere too.

  void update_dev(lock_t *l) {
    lock(l);
    dev_state = 1;
    unlock(l);
  }

  void update_list(lock_t *l) {
    lock(l);
    list_head = 1;
    unlock(l);
  }

  void main(void) {
    lock_t *dl; lock_t *ll; lock_t *alias;
    dl = &dev_lock;
    ll = &list_lock;
    alias = dl;          // Aliased lock pointer: same protection.
    lock(alias);
    dev_state = 2;
    unlock(alias);
    update_dev(dl);
    update_list(ll);
    lock(ll);
    list_head = 2;       // Fixed: list_lock held.
    unlock(ll);
  }
)";

std::unique_ptr<ir::Program> compileOrDie(const std::string &Src) {
  frontend::Diagnostics Diags;
  std::unique_ptr<ir::Program> P = frontend::compileString(Src, Diags);
  if (!P) {
    std::fprintf(stderr, "compile failed:\n%s", Diags.toString().c_str());
    std::exit(1);
  }
  return P;
}

void printWarnings(const RaceReport &R) {
  std::printf("  %u shared variables over %u lock clusters; %u warnings\n",
              R.SharedVariables, R.LockClusters,
              uint32_t(R.Warnings.size()));
  for (const RaceWarning &W : R.Warnings)
    std::printf("  [%s] sev %u  %s: %s@%u '%s'  vs  %s@%u '%s'\n",
                W.Id.c_str(), W.Severity, W.Var.c_str(), W.A->Func.c_str(),
                W.A->LocalIdx, W.A->Stmt.c_str(), W.B->Func.c_str(),
                W.B->LocalIdx, W.B->Stmt.c_str());
  if (R.Warnings.empty())
    std::printf("  none\n");
}

int runDemo() {
  RaceCheckService Svc((core::BootstrapOptions()));

  std::printf("version 1 (buggy driver):\n");
  CheckReport R0 = Svc.update(compileOrDie(Buggy));
  printWarnings(*Svc.report());
  std::printf("  checked %u/%u functions (cold run)\n\n",
              R0.FunctionsChecked, R0.Functions);

  std::printf("version 2 (list_head write now under list_lock):\n");
  CheckReport R1 = Svc.update(compileOrDie(Fixed));
  printWarnings(*Svc.report());
  std::printf("  re-checked %u/%u functions, %u from cache\n",
              R1.FunctionsChecked, R1.Functions, R1.FunctionsFromCache);
  for (const RaceWarning &W : R1.Delta.Retracted)
    std::printf("  retracted [%s] %s -- the fix landed\n", W.Id.c_str(),
                W.Var.c_str());
  for (const RaceWarning &W : R1.Delta.Added)
    std::printf("  added [%s] %s\n", W.Id.c_str(), W.Var.c_str());

  std::printf("\nexpected: version 1 warns on list_head only (dev_state "
              "is protected via must-aliased pointers); version 2 "
              "retracts it and adds nothing.\n");
  return 0;
}

int runReplay(uint32_t NumEdits) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = 42;
  Cfg.NumFunctions = 24;
  Cfg.StmtsPerFunction = 12;
  Cfg.Communities = 4;
  Cfg.PointerFunctionPercent = 60;
  Cfg.WeightNoise = 20;
  Cfg.WeightCall = 4;
  Cfg.RecursionPercent = 0;
  Cfg.CrossCommunityBasisPoints = 0;
  Cfg.LockPointers = 4;
  Cfg.SharedVariables = 6;
  Cfg.LockDensity = 2;

  std::vector<workload::ProgramEdit> Edits =
      workload::generateEditStream(Cfg, NumEdits, /*StreamSeed=*/7);
  workload::EditState St = workload::initialEditState(Cfg);

  RaceCheckService Svc((core::BootstrapOptions()));
  const char *KindName[] = {"mutate", "stub  ", "append"};
  for (uint32_t I = 0; I <= Edits.size(); ++I) {
    const char *What = "cold  ";
    if (I > 0) {
      workload::applyEdit(St, Edits[I - 1]);
      What = KindName[unsigned(Edits[I - 1].Kind)];
    }
    CheckReport R =
        Svc.update(compileOrDie(workload::generateProgram(Cfg, St)));
    std::printf("edit %2u %s  checked %2u/%2u fns (%2u cached)  "
                "%2u warnings (+%u -%u)  %.1fms check\n",
                I, What, R.FunctionsChecked, R.Functions,
                R.FunctionsFromCache, R.Warnings, R.WarningsAdded,
                R.WarningsRetracted, R.CheckSeconds * 1e3);
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2 && std::strcmp(Argv[1], "--replay") == 0)
    return runReplay(Argc >= 3 ? uint32_t(std::atoi(Argv[2])) : 20);
  if (Argc >= 2) {
    std::fprintf(stderr, "usage: %s [--replay N]\n", Argv[0]);
    return 2;
  }
  return runDemo();
}
