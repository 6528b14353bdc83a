#!/usr/bin/env python3
"""Service benchmark for qassert: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the service
binaries and qa_perf (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR
(default .bench_build), runs `qa_perf run`, which drives qassertd (or
qa_router over local shards) over its NDJSON pipe and checks every reply,
and derives the metrics from qa_perf's raw record:

  --trace 0  the end-to-end metrics, measured with tracing off;
  --trace 1  the per-layer metrics, from the spans of an in-process
             traced replay of the same jobs plus reply fields (queue_ms,
             exec_ms, cache_hit) of an end-to-end run.

A human-readable table and the full record go to stdout and to
.bench_out/<workload>-s<seed>-t<trace>/record.json; the last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}. Any
failed check exits 1 with "correct": false and no metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import socket
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("clifford_cached", "dense_terminal", "assert_replay")

# End-to-end metrics of a --trace 0 run. failed_ratio is printed and kept
# in the record, but the final line carries it as attempted/failed: it is
# 0 on every healthy run, so it cannot be a relative-change metric.
E2E_METRICS = (
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_ms_per_job", "ms"),
    ("peak_rss_mb", "MiB"),
)
RECORD_ONLY_E2E = (("failed_ratio", "ratio"),)

BACKENDS = ("statevector", "density_matrix", "stabilizer", "mps")
SHOT_VARIANTS = ("statevector_terminal", "statevector_replay",
                 "density_matrix", "stabilizer", "mps")

# Timing metrics: (name, span name, unit). Each gives <name>.p50 (per
# job) and <name>.share (of traced busy time).
TIMED_SPANS = (
    [("serve.decode_us", "serve.decode", "us"),
     ("serve.jobkey_us", "serve.jobkey", "us"),
     ("serve.cache_get_us", "serve.cache_get", "us"),
     ("serve.encode_us", "serve.encode", "us"),
     ("acomp.compile_us", "acomp.compile", "us"),
     ("acomp.run_us", "acomp.run", "us"),
     ("backend.route_us", "backend.route", "us")]
    + [("backend.prepare_us." + k, "backend.prepare." + k, "us")
       for k in BACKENDS]
    + [("backend.shot_ns." + v, "backend.shots." + v, "ns")
       for v in SHOT_VARIANTS]
    + [("core.postselect_us", "core.postselect", "us")])

PER_LAYER_METRICS = tuple(
    [m for name, _, unit in TIMED_SPANS
     for m in ((name + ".p50", unit), (name + ".share", "ratio"))]
    + [("serve.response_kb", "KiB"),
       ("serve.cache_hit_ratio", "ratio"),
       ("serve.queue_ms.p50", "ms"), ("serve.queue_ms.p99", "ms"),
       ("serve.exec_ms.p50", "ms"), ("serve.exec_ms.p99", "ms"),
       ("serve.outside_ms.p50", "ms"),
       ("acomp.ancillas", "count")]
    + [("backend.jobs." + k, "count") for k in BACKENDS]
    + [("sim.fusion_ratio", "ratio"),
       ("mps.truncation_error_max", "ratio"),
       ("trace.coverage_ratio", "ratio"),
       ("trace.overhead_ratio", "ratio"),
       ("loadgen.lag_p99_ms", "ms")])

# Open loop: a run whose generator sent this late (p99) is invalid. A
# generator that falls behind builds a backlog, and its lag grows
# without bound; wake-up jitter on a busy host stays at a few ms. Latency
# counts from the due time, so jitter is charged to it either way.
MAX_LAG_P99_MS = 50.0
# A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def percentile(values, p):
    """Nearest-rank p-th percentile of `values` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def highest_percentile(n, candidates=PERCENTILES):
    """Highest candidate percentile with >= TAIL_SAMPLES samples beyond
    it among n samples; None when not even the first qualifies."""
    best = None
    for p in candidates:
        if n * (100.0 - p) / 100.0 >= TAIL_SAMPLES - 1e-9:
            best = p
    return best


def median(values):
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build(build_dir, env):
    """Configure (once) and build qa_perf and the service binaries."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "qa_perf", "qassertd", "qa_router"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, env=env,
                              check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            raise RuntimeError("build step failed: " + " ".join(step))
    return (os.path.join(build_dir, "qa_perf"),
            os.path.join(build_dir, "qassert", "tools"))


def cache_flags(build_dir):
    """Compiler flags recorded in the CMake cache (sanitizer check)."""
    flags = []
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(("CMAKE_CXX_FLAGS", "QA_ENABLE_")):
                    flags.append(line.strip())
    except OSError:
        pass
    return flags


# --------------------------------------------------------------------------
# Host and source identity for the record
# --------------------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha(root):
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, check=False)
    except OSError:
        return None
    sha = done.stdout.decode().strip()
    return sha if done.returncode == 0 and sha else None


def source_digest(root):
    """sha256 over the benchmarked sources (a checkout may lack .git)."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if os.path.isfile(name):
                digest.update(os.path.relpath(name, root).encode())
                with open(name, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def window_slices(raw):
    """Split the timed window at qa_perf's ~1 s CPU samples.

    Returns one dict per slice: its length (ms), the tree's CPU ms in it,
    and the latencies of the ok replies received in it. Slices shorter
    than half a second (a sample just before the window end) are
    dropped."""
    samples = raw["cpu_samples"]
    received = sorted(zip(raw["recv_ms"], raw["latency_ms"]))
    slices = []
    for (t0, c0), (t1, c1) in zip(samples, samples[1:]):
        if t1 - t0 < 500.0:
            continue
        slices.append({
            "ms": t1 - t0, "cpu_ms": c1 - c0,
            "latency": [lat for at, lat in received if t0 <= at < t1]})
    return slices


def e2e_metrics(raw):
    """End-to-end metrics, most as medians over the window's slices.

    Other tenants of a shared host slow it in bursts of a few seconds;
    a median over ~1 s slices ignores a burst that covers fewer than
    half of them. p99 needs more samples than a slice holds, so it is
    taken over every ok reply of the window: a tail that comes in bursts
    must show in it."""
    slices = [s for s in window_slices(raw) if s["latency"]]
    rates = [len(s["latency"]) * 1000.0 / s["ms"] for s in slices]
    p50s = [percentile(s["latency"], 50) for s in slices]
    cpu = [s["cpu_ms"] / len(s["latency"]) for s in slices]
    latencies = raw["latency_ms"]
    failed = raw["errors"] + raw["lost"] + raw["duplicates"]
    return {
        "setup_s": (median(raw["setup_s"]), len(raw["setup_s"])),
        "jobs_per_s": (median(rates), len(slices)),
        "latency_p50_ms": (median(p50s), len(slices)),
        "latency_p99_ms": (percentile(latencies, 99), len(latencies)),
        "cpu_ms_per_job": (median(cpu), len(slices)),
        "peak_rss_mb": (raw["peak_rss_mb"], raw["processes"]),
        "failed_ratio": (failed / max(raw["sent"], 1), raw["sent"]),
    }


def dur(span):
    return span["end_us"] - span["start_us"]


def busy_by_class(spans):
    """Traced busy time (us) per job class: every job's root span minus
    the untraced reference execution inside it."""
    refs = {}
    for span in spans:
        if span["name"] == "ref.execute_job":
            refs[span["job"]] = refs.get(span["job"], 0.0) + dur(span)
    busy = {}
    for span in spans:
        if span["parent"] == -1:
            busy[span["kind"]] = (busy.get(span["kind"], 0.0) + dur(span)
                                  - refs.get(span["job"], 0.0))
    return busy


def span_metrics(spans):
    """Per-layer metrics derived from the traced replay's spans."""
    children = {}
    for i, span in enumerate(spans):
        children.setdefault(span["parent"], []).append(i)
    busy = max(sum(busy_by_class(spans).values()), 1e-9)

    out = {}
    for name, span_name, unit in TIMED_SPANS:
        matched = [s for s in spans if s["name"] == span_name]
        if unit == "ns":
            per_job = [dur(s) * 1000.0 / s["shots"] for s in matched
                       if s.get("shots")]
        else:
            totals = {}
            for s in matched:
                totals[s["job"]] = totals.get(s["job"], 0.0) + dur(s)
            per_job = list(totals.values())
        out[name + ".p50"] = (median(per_job), len(per_job))
        out[name + ".share"] = (sum(dur(s) for s in matched) / busy,
                                len(matched))

    encodes = [s["kb"] for s in spans if s["name"] == "serve.encode"]
    out["serve.response_kb"] = (median(encodes), len(encodes))
    compiles = [s["ancillas"] for s in spans if s["name"] == "acomp.compile"]
    out["acomp.ancillas"] = (
        sum(compiles) / len(compiles) if compiles else 0.0, len(compiles))

    execs = [(i, s) for i, s in enumerate(spans) if s["name"] == "serve.exec"]
    for kind in BACKENDS:
        count = sum(1 for _, s in execs if s.get("kind") == kind)
        out["backend.jobs." + kind] = (count, count)
    fused = [s for s in spans if s["name"].startswith("backend.prepare.")
             and s.get("gates_in")]
    gates_in = sum(s["gates_in"] for s in fused)
    out["sim.fusion_ratio"] = (
        sum(s["gates_out"] for s in fused) / gates_in if gates_in else 0.0,
        len(fused))
    out["mps.truncation_error_max"] = (
        max((s.get("trunc", 0.0) for _, s in execs), default=0.0),
        len(execs))

    # Coverage: layer spans inside each traced execution over the
    # untraced executeJob wall time of the same job.
    refs = {s["job"]: dur(s) for s in spans if s["name"] == "ref.execute_job"}
    coverage = []
    for i, s in execs:
        if refs.get(s["job"], 0.0) > 0.0:
            covered = sum(dur(spans[c]) for c in children.get(i, []))
            coverage.append(covered / refs[s["job"]])
    out["trace.coverage_ratio"] = (median(coverage), len(coverage))
    ref_total = sum(refs.values())
    exec_total = sum(dur(s) for _, s in execs)
    out["trace.overhead_ratio"] = (
        exec_total / ref_total - 1.0 if ref_total else 0.0, len(refs))
    return out


def wire_metrics(raw):
    ok = raw["ok"]
    return {
        "serve.cache_hit_ratio": (raw["cache_hits"] / max(ok, 1), ok),
        "serve.queue_ms.p50": (percentile(raw["queue_ms"], 50), ok),
        "serve.queue_ms.p99": (percentile(raw["queue_ms"], 99), ok),
        "serve.exec_ms.p50": (percentile(raw["exec_ms"], 50), ok),
        "serve.exec_ms.p99": (percentile(raw["exec_ms"], 99), ok),
        "serve.outside_ms.p50": (percentile(raw["outside_ms"], 50), ok),
        "loadgen.lag_p99_ms": (percentile(raw["lag_ms"], 99),
                               len(raw["lag_ms"])),
    }


def validity_problems(raw, e2e, build_flags):
    """Reasons the run's numbers must not be used (empty when valid)."""
    problems = []
    for name, check in sorted(raw["checks"].items()):
        if check["failed"]:
            problems.append("check %s failed on %d of %d (%s)" % (
                name, check["failed"], check["jobs"], check["detail"]))
    if raw["build_type"] != "Release" or any(
            "sanitize" in f or (f.startswith(("QA_ENABLE_TSAN",
                                              "QA_ENABLE_ASAN"))
                                and f.endswith("=ON"))
            for f in build_flags):
        problems.append("not a plain Release build: %s %s" % (
            raw["build_type"], build_flags))
    if raw["lag_ms"] and percentile(raw["lag_ms"], 99) > MAX_LAG_P99_MS:
        problems.append("open-loop generator fell behind: lag p99 %.3f ms"
                        % percentile(raw["lag_ms"], 99))
    samples = e2e["latency_p99_ms"][1]
    reach = highest_percentile(samples)
    if reach is None or reach < 99.0:
        problems.append("only %d latency samples: p99 needs %d beyond it"
                        % (samples, TAIL_SAMPLES))
    if e2e["jobs_per_s"][1] < 5:
        problems.append("only %d slices in the window"
                        % e2e["jobs_per_s"][1])
    return problems


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out_dir = os.path.abspath(os.path.join(
        ".bench_out", "%s-s%d-t%d" % (args.workload, args.seed, args.trace)))
    os.makedirs(out_dir, exist_ok=True)
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)

    try:
        qa_perf, bin_dir = build(build_dir, env)
    except (OSError, RuntimeError) as err:
        log(str(err))
        return 1

    command = [qa_perf, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--bin", bin_dir,
               "--out", out_dir]
    log("running " + " ".join(command[1:]))
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("qa_perf exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace")[-4000:])
        log("qa_perf failed with exit code %d" % done.returncode)
        return 1
    with open(os.path.join(out_dir, "raw.json")) as handle:
        raw = json.load(handle)

    e2e = e2e_metrics(raw)
    class_share = {}
    if args.trace:
        with open(os.path.join(out_dir, "spans.ndjson")) as handle:
            spans = [json.loads(line) for line in handle]
        by_class = busy_by_class(spans)
        class_share = {k: v / max(sum(by_class.values()), 1e-9)
                       for k, v in sorted(by_class.items())}
        layer = span_metrics(spans)
        layer.update(wire_metrics(raw))
        chosen = PER_LAYER_METRICS
        values = layer
    else:
        chosen = E2E_METRICS
        values = e2e
    everything = dict(E2E_METRICS + RECORD_ONLY_E2E + PER_LAYER_METRICS)

    problems = validity_problems(raw, e2e, cache_flags(build_dir))
    attempted = max(raw["sent"], 1)
    failed = raw["errors"] + raw["lost"] + raw["duplicates"]
    record = {
        "schema": "qassert-perf/1",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "host": socket.gethostname(),
        "nproc": raw["nproc"],
        "cpu_model": cpu_model(),
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "topology": {k: raw[k] for k in ("loop", "rate_per_s", "in_flight",
                                         "shards", "workers", "processes")},
        "checks": raw["checks"],
        "class_busy_share": class_share,
        "valid": not problems,
        "problems": problems,
        "metrics": {name: {"value": values[name][0],
                           "unit": everything[name],
                           "samples": values[name][1]}
                    for name, _ in chosen},
        "end_to_end": {name: {"value": e2e[name][0], "unit": unit,
                              "samples": e2e[name][1]}
                       for name, unit in E2E_METRICS + RECORD_ONLY_E2E},
    }
    with open(os.path.join(out_dir, "record.json"), "w") as handle:
        json.dump(record, handle, indent=1)

    print("%-36s %16s  %-7s %s" % ("metric", "value", "unit", "samples"))
    shown = record["metrics"] if args.trace else record["end_to_end"]
    for name, metric in shown.items():
        print("%-36s %16.6g  %-7s %d" % (name, metric["value"],
                                          metric["unit"], metric["samples"]))
    for klass, share in class_share.items():
        print("%-36s %16.6g  busy-time share of the class" % (klass, share))
    print(json.dumps(record, sort_keys=True))
    if problems:
        for problem in problems:
            log(problem)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": unit}
                    for name, unit in chosen}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
