#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench (perfbench/CMakeLists.txt: the gpustl sources one level
up plus the workload code in perfbench/src) into .bench_build/ on first
use, runs the workload for S seconds on inputs made from seed N, checks
every output, and prints each metric by name with its unit and sample
count. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (untraced run); with
--trace 1 the per-layer ones, from a run that records spans around the
calls into each layer. perfbench/metrics.json describes every metric: its
unit, direction, and for a per-layer metric the end-to-end metric and
workload it should move. The workloads are listed there too.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
CATALOGUE = os.path.join(HERE, "metrics.json")
TIME_LIMIT_S = 175.0

LAYERS = ["bench", "compact", "distrib", "service", "net", "atpg", "stl"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench and gpustld. Raises on failure."""
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", CMAKE_DIR]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", CMAKE_DIR, "--target", "perfbench_all",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def build_id():
    """Digest of the perfbench binary and the STL manifest: reference reports
    computed by one build on one input set are reused by later runs."""
    h = hashlib.sha256()
    for path in (os.path.join(CMAKE_DIR, "perfbench"),
                 os.path.join(HERE, "inputs", "stl.txt")):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def tail_ms(samples):
    """The highest percentile with a tenth of the samples, at most ten and
    at least one, beyond it: p95 of 200 samples, p90 of 50, the
    second-longest of fewer than twenty, so that no single disturbed
    operation sets the tail and the percentile moves smoothly with the
    number of samples; never below the median, so the maximum of one or two
    samples. Returns (value, label)."""
    xs = sorted(samples)
    n = len(xs)
    beyond = min(10, max(1, n // 10), (n - 1) // 2)
    k = n - 1 - beyond
    return xs[k], "max" if beyond == 0 else "p%.1f" % (100.0 * (k + 1) / n)


def throughput(ends, slices=5):
    """Operations per second: the completion times (seconds into the
    measured phase, sorted) are cut into up to `slices` consecutive slices
    of equal count, each slice's rate is its operations over the time since
    the previous slice ended, and the median rate is returned with the
    number of slices."""
    n = len(ends)
    k = min(slices, n)
    rates = []
    prev = 0.0
    for i in range(k):
        lo, hi = i * n // k, (i + 1) * n // k
        rates.append((hi - lo) / max(ends[hi - 1] - prev, 1e-9))
        prev = ends[hi - 1]
    return statistics.median(rates), k


def check_trace(spans):
    """Returns a list of problems: unparsable fields, unresolved parent
    links, children outside their parent."""
    problems = []
    by_id = {}
    for s in spans:
        if s["id"] in by_id:
            problems.append("duplicate span id %d" % s["id"])
        by_id[s["id"]] = s
        if s["end_ns"] < s["start_ns"]:
            problems.append("span %d (%s) ends before it starts" %
                            (s["id"], s["name"]))
    for s in spans:
        if s["parent"] == 0:
            continue
        p = by_id.get(s["parent"])
        if p is None:
            problems.append("span %d (%s) has unknown parent %d" %
                            (s["id"], s["name"], s["parent"]))
        elif s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
            problems.append("span %d (%s) lies outside its parent %d (%s)" %
                            (s["id"], s["name"], p["id"], p["name"]))
    return problems


def self_times(spans):
    """Self seconds per layer (name prefix before the first '.'): a span's
    duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    totals = {}
    for s in spans:
        covered = 0
        end = s["start_ns"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo = max(c["start_ns"], end, s["start_ns"])
            hi = min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                end = hi
        layer = s["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0) + (s["end_ns"] - s["start_ns"]
                                               - covered)
    return {layer: ns * 1e-9 for layer, ns in totals.items()}


def end_to_end(raw):
    """The end-to-end metrics, each as (value, samples)."""
    ops = raw["samples"].get("op_ms", [])
    setup = raw["samples"].get("setup_s", [])
    tail, label = tail_ms(ops)
    rate, slices = throughput(raw["samples"].get("op_end_s", []))
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "op_p50_ms": (statistics.median(ops), len(ops)),
        "op_tail_ms": (tail, len(ops), label),
        "ops_per_s": (rate, raw["ops"], "median of %d slices" % slices),
        "peak_rss_mb": (raw["values"]["peak_rss_mb"], 1),
        "quality_pct": (raw["values"]["quality_pct"], 1),
    }


def per_layer(raw, catalogue, spans):
    """The per-layer metrics, each as (value, samples)."""
    values = dict(raw["values"])
    ops = max(raw["ops"], 1)
    for layer, seconds in self_times(spans).items():
        if layer in LAYERS:
            values["self.%s_ms" % layer] = seconds * 1e3 / ops
    counts = dict(raw["counts"])
    counts.update({"self.%s_ms" % layer: raw["ops"] for layer in LAYERS})
    return {name: (float(values.get(name, 0.0)), counts.get(name, 1))
            for name in catalogue["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    with open(CATALOGUE) as f:
        catalogue = json.load(f)
    if args.workload not in catalogue["workloads"]:
        log("run.py: unknown workload %s" % args.workload)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("run.py: build failed: %s" % e)
        return 1

    work = os.path.join(BUILD, "work", "%s-%d-%d" %
                        (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    raw_path = os.path.join(work, "result.json")
    trace_path = os.path.join(BUILD, "trace-%s.json" % args.workload)
    cmd = [os.path.join(CMAKE_DIR, "perfbench"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", os.path.join(HERE, "inputs"), "--work", work,
           "--daemon", os.path.join(CMAKE_DIR, "gpustl", "tools", "gpustld"),
           "--out", raw_path, "--trace-file", trace_path,
           "--ref-dir", os.path.join(BUILD, "refs", build_id())]
    # Own process group, so a timeout also stops the daemon and workers.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, TIME_LIMIT_S -
                                     (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("run.py: %s timed out" % args.workload)
        return 1
    if code != 0:
        log("run.py: perfbench exited with %d" % code)
        return 1
    with open(raw_path) as f:
        raw = json.load(f)
    shutil.rmtree(work, ignore_errors=True)

    correct = raw["failed"] == 0 and raw["attempted"] >= 1
    for why in raw["failures"]:
        log("FAILED: " + why)
    if args.trace:
        with open(trace_path) as f:
            spans = json.load(f)["spans"]
        problems = check_trace(spans)
        for p in problems[:20]:
            log("TRACE: " + p)
        correct = correct and not problems
        metrics = per_layer(raw, catalogue, spans)
        specs = catalogue["per_layer"]
    else:
        metrics = end_to_end(raw)
        specs = catalogue["end_to_end"]

    info = raw["info"]
    print("perfbench %s seed %d, %g s, trace %d: nproc %d, backend %s, "
          "build %s" % (args.workload, args.seed, args.seconds, args.trace,
                        info["nproc"], info["backend"], info["build_type"]))
    result = {}
    for name, spec in specs.items():
        value, n = metrics[name][0], metrics[name][1]
        label = " " + metrics[name][2] if len(metrics[name]) > 2 else ""
        print("  %-32s %16.6g %-6s n=%d%s" % (name, value, spec["unit"], n,
                                             label))
        result[name] = {"value": value, "unit": spec["unit"]}
    print("  attempted %d, failed %d, correct %s" %
          (raw["attempted"], raw["failed"], "yes" if correct else "no"))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
