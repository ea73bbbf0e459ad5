//===- bench/BenchUtil.h - Shared benchmark helpers -------------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table / figure / ablation benches: compile a
/// suite entry, format seconds the way the paper's Table 1 does
/// (including the ">15min"-style budget markers), parse flags.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_BENCH_BENCHUTIL_H
#define BSAA_BENCH_BENCHUTIL_H

#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "ir/Ir.h"
#include "workload/BenchmarkSuite.h"
#include "workload/ProgramGenerator.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

namespace bsaa {
namespace bench {

/// Generates and compiles one suite entry; aborts on failure.
inline std::unique_ptr<ir::Program>
compileEntry(const workload::SuiteEntry &Entry) {
  std::string Src = workload::generateProgram(Entry.Config);
  frontend::Diagnostics Diags;
  std::unique_ptr<ir::Program> P = frontend::compileString(Src, Diags);
  if (!P) {
    std::fprintf(stderr, "error: generated program for '%s' failed:\n%s\n",
                 Entry.Name.c_str(), Diags.toString().c_str());
    std::abort();
  }
  return P;
}

/// Formats seconds; budget-limited runs render as "> Xs" the way the
/// paper prints "> 15min".
inline std::string formatSeconds(double Seconds, bool BudgetHit) {
  char Buf[32];
  if (BudgetHit)
    std::snprintf(Buf, sizeof(Buf), ">%.1f", Seconds);
  else
    std::snprintf(Buf, sizeof(Buf), "%.2f", Seconds);
  return Buf;
}

/// Removes \p Flag -- and, when \p TakesValue, the argument after it --
/// from argv, so scaleFromArgs sees only the positional scale. Returns
/// the flag's value (or the flag itself for a boolean flag), or null
/// when it is absent; the last occurrence wins. A value flag with
/// nothing after it is left in place and counts as absent.
inline const char *takeFlag(int &Argc, char **Argv, const char *Flag,
                            bool TakesValue = false) {
  const char *Found = nullptr;
  int Width = TakesValue ? 2 : 1;
  for (int I = 1; I + Width <= Argc;) {
    if (std::strcmp(Argv[I], Flag) != 0) {
      ++I;
      continue;
    }
    Found = Argv[I + Width - 1];
    std::copy(Argv + I + Width, Argv + Argc, Argv + I);
    Argc -= Width;
  }
  return Found;
}

/// Suite scale from argv (argument 1), defaulting to \p Default.
inline double scaleFromArgs(int Argc, char **Argv, double Default) {
  if (Argc > 1) {
    double S = std::atof(Argv[1]);
    if (S > 0)
      return S;
  }
  return Default;
}

} // namespace bench
} // namespace bsaa

#endif // BSAA_BENCH_BENCHUTIL_H
