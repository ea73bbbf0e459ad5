//===- perfbench/harness/main.cpp - Benchmark harness entry point ---------===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload and writes its raw measurements as JSON:
///
///   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
///                     --out FILE --workdir DIR
///
/// perfbench/run.py builds this binary, runs it, and turns the raw
/// samples into the benchmark's metrics. A traced run also writes its
/// spans to DIR/spans-NAME.bin.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

using namespace bsaa;
using namespace bsaa::perfbench;

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string num(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// Sorted samples as [value, count] runs: exact, and compact for the
/// millions of sub-microsecond query latencies of query_warm.
std::string runLength(std::vector<uint64_t> V) {
  std::sort(V.begin(), V.end());
  std::string Out = "[";
  for (size_t I = 0; I < V.size();) {
    size_t J = I;
    while (J < V.size() && V[J] == V[I])
      ++J;
    if (I)
      Out += ',';
    Out += '[';
    Out += std::to_string(V[I]);
    Out += ',';
    Out += std::to_string(J - I);
    Out += ']';
    I = J;
  }
  return Out + "]";
}

std::string toJson(const RunConfig &C, const RunResult &R, double CalibStart,
                   double CalibEnd, const std::string &SpanFile,
                   const Tracer &T) {
  std::string J = "{";
  J += "\"workload\": " + jsonString(C.Workload);
  J += ", \"seed\": " + std::to_string(C.Seed);
  J += ", \"seconds\": " + num(C.Seconds);
  J += ", \"trace\": " + std::to_string(C.Trace ? 1 : 0);
  J += ", \"setup_s\": [";
  for (size_t I = 0; I < R.SetupSeconds.size(); ++I) {
    if (I)
      J += ',';
    J += num(R.SetupSeconds[I]);
  }
  J += "], \"op_ns\": " + runLength(R.OpNs);
  J += ", \"publish_ns\": " + runLength(R.PublishNs);
  J += ", \"ops\": " + std::to_string(R.OpNs.size());
  J += ", \"failed\": " + std::to_string(R.Failed);
  J += ", \"failures\": [";
  for (size_t I = 0; I < R.Failures.size(); ++I) {
    if (I)
      J += ',';
    J += jsonString(R.Failures[I]);
  }
  J += "], \"timed_wall_s\": " + num(R.TimedWallSeconds);
  J += ", \"timed_cpu_s\": " + num(R.TimedCpuSeconds);
  J += ", \"peak_rss_kb\": " + std::to_string(peakRssKb());
  J += ", \"clusters_analyzed\": " + std::to_string(R.ClustersAnalyzed);
  J += ", \"clusters_complete\": " + std::to_string(R.ClustersComplete);
  J += ", \"clients\": " + std::to_string(R.Clients);
  J += ", \"threads\": " + std::to_string(R.Threads);
  J += ", \"calib_ms\": [" + num(CalibStart) + "," + num(CalibEnd) + "]";
  J += ", \"counts\": {";
  bool First = true;
  for (const auto &[K, V] : R.Counts) {
    if (!First)
      J += ", ";
    J += jsonString(K);
    J += ": ";
    J += std::to_string(V);
    First = false;
  }
  J += "}, \"values\": {";
  First = true;
  for (const auto &[K, V] : R.Values) {
    if (!First)
      J += ", ";
    J += jsonString(K);
    J += ": ";
    J += num(V);
    First = false;
  }
  J += "}";
  if (C.Trace) {
    J += ", \"untraced_pass_s\": " + num(R.UntracedPassSeconds);
    J += ", \"traced_pass_s\": " + num(R.TracedPassSeconds);
    J += ", \"traced_ops\": " + std::to_string(R.TracedOps);
    J += ", \"span_file\": " + jsonString(SpanFile);
    J += ", \"span_names\": [";
    for (size_t I = 0; I < T.names().size(); ++I) {
      if (I)
        J += ',';
      J += jsonString(T.names()[I]);
    }
    J += "]";
  }
  return J + "}\n";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N --seconds S "
               "--trace 0|1 --out FILE --workdir DIR\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig C;
  if (Argc % 2 == 0)
    return usage();
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      C.Workload = V;
    else if (K == "--seed")
      C.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      C.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      C.Trace = V == "1";
    else if (K == "--out")
      C.OutPath = V;
    else if (K == "--workdir")
      C.WorkDir = V;
    else
      return usage();
  }
  if (C.Workload.empty() || C.OutPath.empty() || C.WorkDir.empty() ||
      !(C.Seconds > 0))
    return usage();

  try {
    Tracer T(C.Trace);
    double CalibStart = hostCalibrationMs();
    RunResult R;
    if (C.Workload == "cascade")
      R = runCascade(C, T);
    else if (C.Workload == "query_warm")
      R = runQueryWarm(C, T);
    else if (C.Workload == "edit_serve")
      R = runEditServe(C, T);
    else if (C.Workload == "restart")
      R = runRestart(C, T);
    else
      return usage();
    double CalibEnd = hostCalibrationMs();
    std::string SpanFile;
    if (C.Trace) {
      SpanFile = C.WorkDir + "/spans-" + C.Workload + ".bin";
      T.writeSpans(SpanFile);
    }
    std::string J = toJson(C, R, CalibStart, CalibEnd, SpanFile, T);
    std::FILE *F = std::fopen(C.OutPath.c_str(), "w");
    if (!F || std::fwrite(J.data(), 1, J.size(), F) != J.size() ||
        std::fclose(F) != 0) {
      std::fprintf(stderr, "perfbench_harness: cannot write %s\n",
                   C.OutPath.c_str());
      return 1;
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench_harness: %s\n", E.what());
    return 1;
  }
  return 0;
}
