"""Statistics of the benchmark: every number run.py reports is computed here
from the raw samples the C++ harness writes.

Latencies arrive run-length encoded: a sorted list of [value, count] pairs
(exact, and compact for the millions of query latencies of query_warm).
Percentiles use the nearest-rank definition, so every reported percentile
is a measured sample.
"""

import math
import re
import struct

# Candidate tail percentiles, lowest first. The reported tail is the highest
# one that still has at least MIN_BEYOND samples above its rank. The ladder
# stops at p99: beyond it, a 4-vCPU host with steal measures its scheduler.
TAIL_LADDER = (50, 75, 90, 95, 99)
MIN_BEYOND = 10

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Span record of the harness: Start u64, End u64, Id u32, Parent u32,
# Op u32, Name u16, Pad u16 (little-endian).
SPAN = struct.Struct("<QQIIIHH")

LAYERS = ("frontend", "ir", "analysis", "core", "fscs", "query", "racecheck",
          "store", "bench")


def valid_name(name):
    """True if `name` is a legal metric or workload name."""
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def rle(values):
    """Run-length encodes `values` the way the harness does."""
    out = []
    for v in sorted(values):
        if out and out[-1][0] == v:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return out


def rle_count(pairs):
    return sum(c for _, c in pairs)


def rank(n, p):
    """1-based nearest rank of percentile `p` among `n` sorted samples."""
    return max(1, math.ceil(p * n / 100.0))


def beyond(n, p):
    """Samples strictly above the nearest-rank position of `p`."""
    return n - rank(n, p)


def quantile(pairs, p):
    """Nearest-rank percentile `p` (0 < p <= 100) of RLE samples."""
    n = rle_count(pairs)
    if n == 0:
        raise ValueError("no samples")
    want = rank(n, p)
    seen = 0
    for value, count in pairs:
        seen += count
        if seen >= want:
            return value
    return pairs[-1][0]


def tail(pairs):
    """The tail percentile: (percentile, value, samples beyond it).

    Picks the highest ladder percentile with at least MIN_BEYOND samples
    beyond it. A run too short for even p50 to qualify reports its maximum
    as p100 with 0 samples beyond, which the caller flags.
    """
    n = rle_count(pairs)
    for p in reversed(TAIL_LADDER):
        b = beyond(n, p)
        if b >= MIN_BEYOND:
            return p, quantile(pairs, p), b
    return 100, pairs[-1][0], 0


def median(values):
    s = sorted(values)
    if not s:
        raise ValueError("no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def failures(attempted, failed):
    """(failed ops, failed ratio): a failing op counts once however many of
    its checks failed, so the count is capped at the ops attempted."""
    if attempted < 1:
        raise ValueError("a run attempts at least one op")
    failed = min(max(failed, 0), attempted)
    return failed, failed / attempted


def end_to_end(raw):
    """End-to-end metrics of an untraced run: {name: (value, unit)} plus
    the tail's percentile and sample count for the report."""
    ops = raw["ops"]
    lat = raw["op_ns"]
    tail_p, tail_ns, tail_beyond = tail(lat)
    metrics = {
        "setup_s": (median(raw["setup_s"]), "s"),
        "op_ms_p50": (quantile(lat, 50) / 1e6, "ms"),
        "op_ms_tail": (tail_ns / 1e6, "ms"),
        "ops_per_s": (ops / raw["timed_wall_s"], "1/s"),
        "cpu_ms_per_op": (raw["timed_cpu_s"] * 1e3 / ops, "ms"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "fscs_complete_ratio": (
            raw["clusters_complete"] / raw["clusters_analyzed"], "ratio"),
    }
    return metrics, {"tail_percentile": tail_p, "tail_beyond": tail_beyond}


def read_spans(path):
    with open(path, "rb") as f:
        data = f.read()
    return [SPAN.unpack_from(data, off)
            for off in range(0, len(data) - SPAN.size + 1, SPAN.size)]


def self_times(spans, names):
    """Self time (ns) per layer over the spans of timed ops (Op > 0): a
    span's duration minus the part of it its children cover."""
    children = {}
    for start, end, _id, parent, _op, _name, _pad in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    totals = {}
    for start, end, sid, _parent, op, name, _pad in spans:
        if op == 0:
            continue
        covered = 0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        layer = names[name].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0) + (end - start) - covered
    return totals


# Work counters reported as per-layer metrics (deterministic per seed).
COUNT_METRICS = (
    "core.clusters", "core.slice_statements", "core.clusters_reanalyzed",
    "core.clusters_from_cache", "core.steensgaard_adopted", "fscs.steps",
    "fscs.budget_hits", "fscs.summary_tuples", "query.index_answers",
    "query.fscs_answers", "query.andersen_answers",
    "query.steensgaard_answers", "query.materializations",
    "query.cache_adoptions", "query.evictions",
    "racecheck.functions_checked", "racecheck.functions_from_cache",
    "serving.edits_applied", "serving.edits_coalesced",
    "serving.edits_rejected", "store.records",
)


def per_layer(raw, spans):
    """Per-layer metrics of a traced run: {name: (value, unit)}. A layer
    the workload does not exercise reports 0."""
    names = raw["span_names"]
    counts = raw["counts"]
    values = raw["values"]
    durs = {}
    per_op_sum = {}
    for start, end, _id, _parent, op, name, _pad in spans:
        n = names[name]
        durs.setdefault(n, []).append(end - start)
        if n in ("core.update", "query.snapshot_build", "racecheck.check"):
            per_op_sum[op] = per_op_sum.get(op, 0) + (end - start)

    def q(name_list, p, scale):
        vals = [d for n in name_list for d in durs.get(n, ())]
        return quantile(rle(vals), p) / scale if vals else 0.0

    def total(name, scale):
        return sum(durs.get(name, ())) / scale

    ms, us = 1e6, 1e3
    ops = max(1, raw["traced_ops"])
    selfs = self_times(spans, names)
    compile_s = total("frontend.compile", 1e9)
    fscs_s = total("fscs.cluster", 1e9)
    steps = counts.get("fscs.steps", 0)
    serving_overhead = 0.0
    if raw["publish_ns"] and per_op_sum:
        serving_overhead = (quantile(raw["publish_ns"], 50)
                            - quantile(rle(per_op_sum.values()), 50)) / ms
    untraced = raw["untraced_pass_s"]
    m = {
        "frontend.compile_ms": (q(["frontend.compile"], 50, ms), "ms"),
        "frontend.mb_per_s": (
            counts.get("frontend.source_bytes", 0) / 1e6 / compile_s
            if compile_s else 0.0, "MB/s"),
        "ir.fingerprint_ms": (q(["ir.fingerprint"], 50, ms), "ms"),
        "analysis.steensgaard_ms": (q(["analysis.steensgaard"], 50, ms), "ms"),
        "analysis.andersen_fallback_ms": (
            q(["analysis.andersen_fallback"], 50, ms), "ms"),
        "core.cover_ms": (q(["core.cover"], 50, ms), "ms"),
        "core.update_ms": (q(["core.update"], 50, ms), "ms"),
        "fscs.cluster_ms_p50": (q(["fscs.cluster"], 50, ms), "ms"),
        "fscs.cluster_ms_p99": (q(["fscs.cluster"], 99, ms), "ms"),
        "fscs.steps_per_s": (steps / fscs_s if fscs_s else 0.0, "1/s"),
        "fscs.summary_cache_hit_ratio": (
            values.get("fscs.summary_cache_hit_ratio", 0.0), "ratio"),
        "query.snapshot_build_ms": (q(["query.snapshot_build"], 50, ms), "ms"),
        "query.index_us_p50": (q(["query.index"], 50, us), "us"),
        "query.fscs_us_p50": (
            q(["query.fscs", "query.fscs_partial"], 50, us), "us"),
        "query.fscs_us_p99": (
            q(["query.fscs", "query.fscs_partial"], 99, us), "us"),
        "query.fallback_us_p50": (
            q(["query.andersen", "query.steensgaard"], 50, us), "us"),
        "query.first_touch_us_p50": (q(["query.first_touch"], 50, us), "us"),
        "query.first_touch_us_p99": (q(["query.first_touch"], 99, us), "us"),
        "racecheck.check_ms": (q(["racecheck.check"], 50, ms), "ms"),
        "serving.overhead_ms": (serving_overhead, "ms"),
        "store.open_ms": (q(["store.open"], 50, ms), "ms"),
        "store.decode_ms": (total("store.decode", ms), "ms"),
        "store.encode_ms": (total("store.encode", ms), "ms"),
        "store.mb": (values.get("store.mb", 0.0), "MB"),
        "store.bytes_per_cluster": (
            values.get("store.bytes_per_cluster", 0.0), "B"),
        "store.hit_ratio": (values.get("store.hit_ratio", 0.0), "ratio"),
        "host.calib_ms": (median(raw["calib_ms"]), "ms"),
        "trace.overhead_pct": (
            (raw["traced_pass_s"] / untraced - 1.0) * 100.0
            if untraced else 0.0, "%"),
    }
    for layer in LAYERS:
        m[layer + ".self_ms"] = (selfs.get(layer, 0) / ms / ops, "ms")
    for name in COUNT_METRICS:
        m[name] = (counts.get(name, 0), "count")
    return m


def check_result(result, spec, trace):
    """Problems with the final JSON object against BENCHMARK.json `spec`
    (empty list = valid)."""
    problems = []
    if not isinstance(result, dict):
        return ["result is not an object"]
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        problems.append("keys are %s, want %s"
                        % (sorted(result), sorted(keys)))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool):
            problems.append(k + " is not an integer")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    want = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    wanted = {m["name"]: m["unit"] for m in want}
    if set(metrics) != set(wanted):
        missing = sorted(set(wanted) - set(metrics))
        extra = sorted(set(metrics) - set(wanted))
        problems.append("metrics missing %s, unexpected %s" % (missing, extra))
    for name, body in metrics.items():
        if not valid_name(name):
            problems.append("bad metric name %r" % name)
        if not isinstance(body, dict) or set(body) != {"value", "unit"}:
            problems.append("metric %s is not {value, unit}" % name)
            continue
        v = body["value"]
        if (not isinstance(v, (int, float)) or isinstance(v, bool)
                or not math.isfinite(v)):
            problems.append("metric %s has non-numeric value" % name)
        if name in wanted and body["unit"] != wanted[name]:
            problems.append("metric %s unit %r, want %r"
                            % (name, body["unit"], wanted[name]))
    return problems
