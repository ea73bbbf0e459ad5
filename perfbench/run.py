#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the C++ harness (perfbench/CMakeLists.txt, which compiles the
libraries from this checkout's src/) into $CARGO_TARGET_DIR or
.bench_build, runs the workload in one process, and prints a report
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit code is nonzero when any op failed
its oracle, the work counters differ from an earlier run of the same
binary, workload, seed and run length, or the build or run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics  # noqa: E402

WORKLOADS = ("cascade", "query_warm", "edit_serve", "restart")
DEFAULT_SEED = 1
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    """Configures and builds the harness; returns its path."""
    cdir = os.path.join(bdir, "perfbench")
    cache = os.path.join(cdir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, errors="replace") as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            shutil.rmtree(cdir)  # A build tree of another checkout.
    subprocess.run(["cmake", "-S", HERE, "-B", cdir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", cdir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(cdir, "perfbench_harness")


def run_harness(binary, args, workdir):
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "raw.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--workdir", workdir]
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("harness exceeded %d s" % HARNESS_TIMEOUT_S)
    if code != 0:
        raise RuntimeError("harness exited with code %d" % code)
    with open(out) as f:
        return json.load(f)


def determinism_check(bdir, binary, args, counts):
    """Compares `counts` with the first recorded run of the same binary,
    workload, seed, run length and trace mode. Returns (ok, message)."""
    h = hashlib.sha256()
    with open(binary, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    key = "%s-%s-seed%d-%ss-trace%d.json" % (
        h.hexdigest()[:16], args.workload, args.seed, args.seconds, args.trace)
    path = os.path.join(bdir, "counts", key)
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(counts, f, sort_keys=True)
        return True, "first run of this binary and seed; counts recorded"
    with open(path) as f:
        ref = json.load(f)
    diff = sorted(k for k in set(ref) | set(counts)
                  if ref.get(k) != counts.get(k))
    if diff:
        return False, "counts differ from the recorded run: " + ", ".join(
            "%s %s -> %s" % (k, ref.get(k), counts.get(k)) for k in diff)
    return True, "counts identical to the recorded run"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")
    return args


def main(argv):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bdir = build_dir()
    binary = build(bdir)
    workdir = os.path.join(bdir, "runs",
                           "%s-%d" % (args.workload, os.getpid()))
    try:
        raw = run_harness(binary, args, workdir)
        spans = (metrics.read_spans(raw["span_file"]) if args.trace else [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = raw["ops"]
    failed, failed_ratio = metrics.failures(attempted, raw["failed"])
    same, det_msg = determinism_check(bdir, binary, args, raw["counts"])

    print("perfbench %s  seed %d  seconds %d  trace %d  clients %d  "
          "threads %d" % (args.workload, args.seed, args.seconds, args.trace,
                          raw["clients"], raw["threads"]))
    if args.trace:
        values = metrics.per_layer(raw, spans)
        print("  traced ops %d, %d spans; untraced pass %.3f s, traced pass "
              "%.3f s" % (raw["traced_ops"], len(spans),
                          raw["untraced_pass_s"], raw["traced_pass_s"]))
    else:
        values, info = metrics.end_to_end(raw)
        print("  ops %d; tail = p%s with %d samples beyond it%s"
              % (attempted, info["tail_percentile"], info["tail_beyond"],
                 "" if info["tail_beyond"] else " (too few ops for a tail)"))
        print("  setup runs (s): %s" % ", ".join(
            "%.4f" % s for s in raw["setup_s"]))
    for name in sorted(values):
        v, unit = values[name]
        print("  %-34s %14.6g %s" % (name, v, unit))
    print("  failed_ratio %.6g (%d of %d ops)" % (failed_ratio, failed,
                                                  attempted))
    print("  host.calib_ms start %.3f end %.3f" % tuple(raw["calib_ms"]))
    print("  counts: " + ", ".join(
        "%s=%d" % kv for kv in sorted(raw["counts"].items())))
    print("  determinism: " + det_msg)
    for msg in raw["failures"]:
        print("  FAILURE: " + msg)

    result = {
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in sorted(values.items())},
    }
    problems = metrics.check_result(result, spec, args.trace)
    for msg in problems:
        print("  SCHEMA: " + msg)
    if problems:
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
