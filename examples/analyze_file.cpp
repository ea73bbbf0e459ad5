//===- examples/analyze_file.cpp - Command-line analyzer ------------------===//
//
// Runs the full bootstrapping cascade once on a mini-C file from disk,
// through a RaceCheckService, and prints a report: partition statistics,
// the cluster cover, per-cluster FSCS timing, and (if lock pointers are
// present) the race checker's warnings over the same snapshot. This is
// the "use it on your own code" entry point.
//
// Usage: analyze_file <file.minic> [--threshold N] [--threads N]
//        analyze_file --demo            (runs on a built-in program)
//
//===----------------------------------------------------------------------===//

#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "racecheck/RaceCheckEngine.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace bsaa;

namespace {

const char *DemoProgram = R"(
  lock_t mutex;
  int counter;
  int *head;
  void push(int *node) {
    lock_t *l;
    l = &mutex;
    lock(l);
    head = node;
    counter = counter + 1;
    unlock(l);
  }
  void main(void) {
    int slot1; int slot2;
    int *n;
    n = &slot1;
    push(n);
    n = &slot2;
    push(n);
    counter = 0;   // unprotected: a race with push's counter update
  }
)";

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <file.minic> [--threshold N] [--threads N]\n"
               "       %s --demo\n",
               Argv0, Argv0);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Source;
  std::string Name = "<demo>";
  core::BootstrapOptions Opts;
  Opts.EngineOpts.StepBudget = 2000000;

  if (Argc < 2) {
    usage(Argv[0]);
    return 2;
  }
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--demo") == 0) {
      Source = DemoProgram;
    } else if (std::strcmp(Argv[I], "--threshold") == 0 && I + 1 < Argc) {
      Opts.AndersenThreshold = uint32_t(std::atoi(Argv[++I]));
    } else if (std::strcmp(Argv[I], "--threads") == 0 && I + 1 < Argc) {
      Opts.Threads = unsigned(std::atoi(Argv[++I]));
    } else if (Argv[I][0] == '-') {
      usage(Argv[0]);
      return 2;
    } else {
      Name = Argv[I];
      std::ifstream In(Name);
      if (!In) {
        std::fprintf(stderr, "error: cannot open '%s'\n", Name.c_str());
        return 1;
      }
      std::ostringstream SS;
      SS << In.rdbuf();
      Source = SS.str();
    }
  }
  if (Source.empty()) {
    usage(Argv[0]);
    return 2;
  }

  frontend::Diagnostics Diags;
  std::unique_ptr<ir::Program> P = frontend::compileString(Source, Diags);
  if (!P) {
    std::fprintf(stderr, "%s: compile failed:\n%s", Name.c_str(),
                 Diags.toString().c_str());
    return 1;
  }
  std::printf("%s: %u variables (%u pointers), %u functions, %u "
              "statements\n",
              Name.c_str(), P->numVars(), P->numPointers(), P->numFuncs(),
              P->numLocs());

  bool HasLocks = false;
  for (ir::VarId V = 0; V < P->numVars() && !HasLocks; ++V)
    HasLocks = P->var(V).isLockPointer();

  Timer T;
  racecheck::RaceCheckService Svc(Opts);
  racecheck::CheckReport CR = Svc.update(std::move(P));
  const core::BootstrapResult &R = Svc.alias().driver().lastResult();
  std::printf("\nbootstrapping cascade (Andersen threshold %u):\n",
              Opts.AndersenThreshold);
  std::printf("  steensgaard partitioning   %8.3fs\n",
              R.SteensgaardSeconds);
  std::printf("  andersen clustering        %8.3fs\n",
              R.AndersenClusteringSeconds);
  std::printf("  clusters                   %8u (max %u pointers)\n",
              R.NumClusters, R.MaxClusterSize);
  std::printf("  per-cluster FSCS, total    %8.3fs%s\n",
              R.TotalFscsSeconds, R.AnyBudgetHit ? "  (budget hit)" : "");
  std::printf("  5-part simulated parallel  %8.3fs\n",
              R.SimulatedParallelSeconds);
  std::printf("  end-to-end wall clock      %8.3fs\n", T.seconds());

  if (HasLocks) {
    std::printf("\nrace detection (%u lock clusters analyzed):\n",
                CR.LockClusters);
    const std::vector<racecheck::RaceWarning> &Ws = Svc.report()->Warnings;
    if (Ws.empty())
      std::printf("  no potential races\n");
    for (const racecheck::RaceWarning &W : Ws)
      std::printf("  potential race on %s: %s@%u '%s' vs %s@%u '%s'\n",
                  W.Var.c_str(), W.A->Func.c_str(), W.A->LocalIdx,
                  W.A->Stmt.c_str(), W.B->Func.c_str(), W.B->LocalIdx,
                  W.B->Stmt.c_str());
  }
  return 0;
}
