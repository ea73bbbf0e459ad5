//===- perfbench/harness/Common.cpp - Shared benchmark plumbing ----------===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "support/ContentHash.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <sys/resource.h>

namespace bsaa {
namespace perfbench {

double processCpuSeconds() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  auto Secs = [](const timeval &T) {
    return double(T.tv_sec) + double(T.tv_usec) * 1e-6;
  };
  return Secs(U.ru_utime) + Secs(U.ru_stime);
}

uint64_t peakRssKb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<uint64_t>(U.ru_maxrss);
}

double hostCalibrationMs() {
  uint64_t T0 = nowNs();
  std::vector<uint32_t> V(1 << 16);
  support::SplitMix64 R(0x9e3779b97f4a7c15ull);
  uint64_t Acc = 0;
  for (int Round = 0; Round < 24; ++Round) {
    for (uint32_t &X : V)
      X = static_cast<uint32_t>(R.next());
    std::sort(V.begin(), V.end());
    Acc += V[V.size() / 2];
  }
  double Ms = double(nowNs() - T0) * 1e-6;
  // Consume the checksum so the kernel cannot be folded away.
  static std::atomic<uint64_t> Sink{0};
  Sink.store(Acc, std::memory_order_relaxed);
  return Ms;
}

std::unique_ptr<ir::Program> compileSource(const std::string &Src) {
  frontend::Diagnostics Diags;
  std::unique_ptr<ir::Program> P = frontend::compileString(Src, Diags);
  if (!P)
    throw std::runtime_error("generated program failed to compile: " +
                             Diags.toString());
  return P;
}

workload::GeneratorConfig raceConfig(double Scale) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = 42;
  Cfg.NumFunctions = std::max<uint32_t>(8, uint32_t(120 * Scale));
  Cfg.StmtsPerFunction = 14;
  Cfg.Communities = std::max<uint32_t>(4, uint32_t(24 * Scale));
  Cfg.PointerFunctionPercent = 60;
  Cfg.WeightNoise = 20;
  Cfg.WeightCall = 4;
  Cfg.RecursionPercent = 0;
  Cfg.CrossCommunityBasisPoints = 0;
  Cfg.LockPointers = 6;
  Cfg.SharedVariables = 8;
  Cfg.LockDensity = 2;
  return Cfg;
}

std::vector<ir::VarId> pointerVars(const ir::Program &P) {
  std::vector<ir::VarId> Ptrs;
  for (ir::VarId V = 0; V < P.numVars(); ++V)
    if (P.var(V).isPointer())
      Ptrs.push_back(V);
  return Ptrs;
}

uint64_t deriveSeed(uint64_t Seed, uint64_t Stream) {
  support::SplitMix64 R(Seed * 0x100000001b3ull ^ Stream);
  return R.next();
}

uint16_t Tracer::name(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  for (size_t I = 0; I < Names.size(); ++I)
    if (Names[I] == Name)
      return static_cast<uint16_t>(I);
  Names.push_back(Name);
  return static_cast<uint16_t>(Names.size() - 1);
}

void Tracer::record(const SpanRecord &R) {
  std::lock_guard<std::mutex> Lock(M);
  Spans.push_back(R);
}

void Tracer::recordAll(const std::vector<SpanRecord> &Rs) {
  std::lock_guard<std::mutex> Lock(M);
  Spans.insert(Spans.end(), Rs.begin(), Rs.end());
}

void Tracer::writeSpans(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(M);
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    throw std::runtime_error("cannot write span file " + Path);
  // The harness only targets little-endian hosts; the record layout is
  // written field by field so padding never leaks into the file.
  for (const SpanRecord &R : Spans) {
    std::fwrite(&R.Start, 8, 1, F);
    std::fwrite(&R.End, 8, 1, F);
    std::fwrite(&R.Id, 4, 1, F);
    std::fwrite(&R.Parent, 4, 1, F);
    std::fwrite(&R.Op, 4, 1, F);
    std::fwrite(&R.Name, 2, 1, F);
    std::fwrite(&R.Pad, 2, 1, F);
  }
  if (std::fclose(F) != 0)
    throw std::runtime_error("short write to span file " + Path);
}

QuerySpanNames::QuerySpanNames(Tracer &T)
    : Rungs{T.name("query.index"), T.name("query.fscs"),
            T.name("query.fscs_partial"), T.name("query.andersen"),
            T.name("query.steensgaard")},
      Fallback(T.name("analysis.andersen_fallback")),
      FirstTouch(T.name("query.first_touch")) {
  static_assert(static_cast<int>(query::AnswerSource::Steensgaard) == 4,
                "one span name per AnswerSource");
}

uint16_t QuerySpanNames::label(query::AnswerSource S, bool Materialized) {
  if (S == query::AnswerSource::Andersen && !FallbackSeen) {
    FallbackSeen = true;
    return Fallback;
  }
  return Materialized ? FirstTouch : rung(S);
}

uint64_t scaledCount(double OpsPerSecond, double Seconds, uint64_t Min) {
  double N = std::llround(OpsPerSecond * Seconds);
  return std::max<uint64_t>(Min, static_cast<uint64_t>(N));
}

} // namespace perfbench
} // namespace bsaa
