//===- perfbench/harness/Common.h - Shared benchmark plumbing --*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark harness shares: the command
/// line, the raw result a run hands to perfbench/run.py, the span
/// recorder of traced runs, and small helpers (compiling generated
/// programs, process CPU/RSS probes, the host speed kernel).
///
/// The harness only *measures*. Every statistic (percentiles, the tail
/// percentile, self time per layer, ratios) is computed by run.py from
/// the raw samples written here, so one implementation of each
/// statistic exists and its tests run without a C++ build.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_PERFBENCH_COMMON_H
#define BSAA_PERFBENCH_COMMON_H

#include "ir/Ir.h"
#include "query/QuerySnapshot.h"
#include "workload/ProgramGenerator.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bsaa {
namespace perfbench {

/// Parsed command line of one harness run.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutPath;  ///< Raw result JSON.
  std::string WorkDir;  ///< Scratch space (store directories, spans).
};

/// Nanoseconds on the steady clock (one epoch per process).
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process CPU time (user + system, all threads) in seconds.
double processCpuSeconds();

/// Peak resident set size of this process in kilobytes.
uint64_t peakRssKb();

/// Fixed deterministic CPU kernel (splitmix64 chain plus a small
/// integer sort); returns its wall time in milliseconds. Identical work
/// on every call, so a slow reading marks a slow host phase.
double hostCalibrationMs();

/// Compiles mini-C source; throws std::runtime_error on diagnostics.
std::unique_ptr<ir::Program> compileSource(const std::string &Src);

/// The racecheck bench's editable, lock-heavy program at \p Scale
/// (bench/racecheck_bench.cpp).
workload::GeneratorConfig raceConfig(double Scale);

/// Pointer-typed variables of \p P, ascending.
std::vector<ir::VarId> pointerVars(const ir::Program &P);

/// Derives an independent input seed from the workload seed and a
/// stream label, so each input family (programs, queries, edits) moves
/// with --seed without sharing draws.
uint64_t deriveSeed(uint64_t Seed, uint64_t Stream);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// One closed span. Ids start at 1; Parent 0 marks a root.
struct SpanRecord {
  uint64_t Start = 0, End = 0;
  uint32_t Id = 0, Parent = 0, Op = 0;
  uint16_t Name = 0;
  uint16_t Pad = 0;
};

/// In-memory span recorder of a traced run. Span names are
/// "<layer>.<what>"; run.py derives layer self time from the parent
/// links. Disabled tracers record nothing.
class Tracer {
public:
  explicit Tracer(bool Enabled) : On(Enabled) {}

  bool enabled() const { return On; }

  /// Interned id of \p Name (thread-safe; intern outside hot loops).
  uint16_t name(const std::string &Name);

  uint32_t newId() { return NextId.fetch_add(1, std::memory_order_relaxed); }

  /// Appends a closed span (thread-safe).
  void record(const SpanRecord &R);
  /// Appends a thread's locally collected spans in one lock.
  void recordAll(const std::vector<SpanRecord> &Rs);

  /// Writes every span as packed little-endian records
  /// (Start u64, End u64, Id u32, Parent u32, Op u32, Name u16, Pad u16).
  void writeSpans(const std::string &Path) const;

  const std::vector<std::string> &names() const { return Names; }

private:
  bool On;
  std::atomic<uint32_t> NextId{1};
  mutable std::mutex M;
  std::vector<std::string> Names;
  std::vector<SpanRecord> Spans;
};

/// RAII span: open at construction, recorded at destruction. A no-op
/// on a disabled tracer.
class Span {
public:
  Span(Tracer &T, uint16_t Name, uint32_t Parent, uint32_t Op)
      : T(T) {
    if (!T.enabled())
      return;
    R.Id = T.newId();
    R.Parent = Parent;
    R.Op = Op;
    R.Name = Name;
    R.Start = nowNs();
  }
  ~Span() {
    if (!T.enabled())
      return;
    R.End = nowNs();
    T.record(R);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  uint32_t id() const { return R.Id; }
  /// Relabels the span (e.g. by the answer rung known only afterwards).
  void rename(uint16_t Name) { R.Name = Name; }

private:
  Tracer &T;
  SpanRecord R;
};

/// Names of the query spans of traced passes. A query is named by the
/// rung that answered it ("query.index", "query.fscs", ...), except the
/// first Andersen-rung answer of a fresh snapshot, which pays the lazily
/// solved whole-program fallback ("analysis.andersen_fallback"), and a
/// query that materialized a cluster ("query.first_touch").
class QuerySpanNames {
public:
  explicit QuerySpanNames(Tracer &T);
  /// Starts a fresh snapshot: its first Andersen answer is the fallback.
  void newSnapshot() { FallbackSeen = false; }
  uint16_t rung(query::AnswerSource S) const {
    return Rungs[static_cast<uint8_t>(S)];
  }
  uint16_t label(query::AnswerSource S, bool Materialized);

private:
  uint16_t Rungs[5];
  uint16_t Fallback, FirstTouch;
  bool FallbackSeen = false;
};

//===----------------------------------------------------------------------===//
// Raw run result
//===----------------------------------------------------------------------===//

/// Everything one run measured, before any statistics.
struct RunResult {
  std::vector<double> SetupSeconds;
  /// Wall latency of every timed op, nanoseconds.
  std::vector<uint64_t> OpNs;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< First few failure messages.
  double TimedWallSeconds = 0;
  double TimedCpuSeconds = 0;
  uint64_t ClustersAnalyzed = 0;
  uint64_t ClustersComplete = 0;
  unsigned Clients = 1;
  unsigned Threads = 1;
  /// Deterministic work counters: identical on every run of the same
  /// code, workload, seed and run length (run.py enforces this).
  std::map<std::string, uint64_t> Counts;
  /// Measured layer values that are not spans (bytes, ratios, ms).
  std::map<std::string, double> Values;
  /// Traced runs: wall time of the untraced and the traced pass over
  /// the same op list (tracing overhead), and per-op publish latencies
  /// of the untraced pass where the workload publishes.
  double UntracedPassSeconds = 0;
  double TracedPassSeconds = 0;
  uint64_t TracedOps = 0;
  std::vector<uint64_t> PublishNs;

  void fail(const std::string &Msg) {
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(Msg);
  }
};

/// Runs \p Setup \p Reps times and records each duration; returns the
/// last repetition's product. Each earlier product is destroyed before
/// the next repetition starts, outside the timed intervals, so peak
/// memory is that of one set-up.
template <typename Fn>
auto timedSetups(RunResult &R, unsigned Reps, Fn Setup) -> decltype(Setup()) {
  decltype(Setup()) Last{};
  for (unsigned I = 0; I < Reps; ++I) {
    Last = decltype(Setup()){};
    uint64_t T0 = nowNs();
    Last = Setup();
    R.SetupSeconds.push_back(double(nowNs() - T0) * 1e-9);
  }
  return Last;
}

/// Op counts scale with the requested run length so that a run
/// measures about \p Seconds on the reference host; a fixed count per
/// run length keeps the work identical across runs.
uint64_t scaledCount(double OpsPerSecond, double Seconds, uint64_t Min);

RunResult runCascade(const RunConfig &C, Tracer &T);
RunResult runQueryWarm(const RunConfig &C, Tracer &T);
RunResult runEditServe(const RunConfig &C, Tracer &T);
RunResult runRestart(const RunConfig &C, Tracer &T);

} // namespace perfbench
} // namespace bsaa

#endif // BSAA_PERFBENCH_COMMON_H
