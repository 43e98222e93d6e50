#!/usr/bin/env python3
"""Pipeline benchmark for the distributed programs monitor.

Usage (from the repository root):

    python3 pipebench/run.py --workload flat --seed 1 --seconds 20 --trace 0

Builds `pipebench` (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs iterations of the workload, one process
each, for about --seconds seconds (at least MIN_ITERS). Every iteration
checks its outputs. The last line of stdout is one JSON object:
`correct`, `attempted` and `failed` count iterations, and `metrics`
holds the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) over iterations: medians, except the timings of `replay`,
which come from its fastest iterations (see SUMMARY). With --trace 1,
odd iterations record spans (written to .bench_out/) and even ones do
not, which gives the tracing overhead. Exits 1 if any output check
failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("flat", "tree", "replay")
MIN_ITERS = 3
# Each iteration enforces its own 60 s deadline; this is the backstop.
ITER_TIMEOUT_S = 90
OUT_DIR = ".bench_out"

END_TO_END = [
    ("records_per_s", "1/s"),
    ("result_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# Per-layer metrics: (name, unit, span whose self time it is, or None
# for a count the iteration reports under the same name).
PER_LAYER = [
    ("simos.job_s", "s", "simos.job"),
    ("simos.trail_s", "s", "simos.trail"),
    ("meter.encode_s", "s", "meter.encode"),
    ("meter.bytes_per_record", "B", None),
    ("meter.records_per_flush", "count", None),
    ("simnet.cross_bytes_per_record", "B", None),
    ("filter.feed_s", "s", "filter.feed"),
    ("filter.render_s", "s", "filter.render"),
    ("prefilter.accept_ratio", "ratio", None),
    ("filter.dups_suppressed", "count", None),
    ("aggregate.dups_at_root", "count", None),
    ("logstore.append_s", "s", "logstore.append"),
    ("logstore.tail_s", "s", "logstore.tail"),
    ("logstore.scan_s", "s", "logstore.scan"),
    ("logstore.bytes_per_record", "B", None),
    ("logstore.flushes", "count", None),
    ("logstore.seals", "count", None),
    ("controller.getlog_s", "s", "controller.getlog"),
    ("meterd.rpc_served", "count", None),
    ("meterd.rpc_retries", "count", None),
    ("net.connect_retries", "count", None),
    ("live.ingest_s", "s", "live.ingest"),
    ("analysis.parse_s", "s", "analysis.parse"),
    ("analysis.analyze_s", "s", "analysis.analyze"),
]


def build():
    """Builds the iteration binary; returns its path or None."""
    root = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(root, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target, "release", "pipebench")


def run_iteration(binary, workload, seed, index, traced):
    """Runs one iteration in its own process; returns its result dict
    with the process's peak resident memory added."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--iter", str(index), "--trace", "1" if traced else "0"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    timer = threading.Timer(ITER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    lines = stdout.decode(errors="replace").strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        res = None
    if proc.returncode != 0 or not isinstance(res, dict):
        return {"ok": False, "traced": traced,
                "error": "iteration exited with code %d" % proc.returncode}
    res["traced"] = traced
    res["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # KiB on Linux
    return res


def self_times(spans):
    """Seconds of self time per span name: a span's duration minus the
    part of it its child spans cover."""
    children = {}
    for _, start, end, parent, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for cs, ce in sorted(children.get(i, [])):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out[name] = out.get(name, 0.0) + (end - start - covered) / 1e6
    return out


def median(values):
    return statistics.median(values) if values else 0.0


def lowest(values):
    return min(values, default=0.0)


def highest(values):
    return max(values, default=0.0)


# How a run sums up its iterations' timings, where not by the median.
# `replay` is one thread doing the same work in every iteration, so an
# iteration slower than the fastest was slowed by the host. On a
# 2-vCPU VM whose host runs other guests, the same replay iteration
# took 0.9 to 1.9 s depending on when it ran. Over back-to-back
# iterations, the medians of 36 s windows spread by 9-14% (quartile
# distance over median) and their fastest iterations by 6-8%.
# Like timeit, `replay` reports its best iteration. `flat` and `tree`
# run the simulator's threads, whose scheduling is part of what they
# measure, and report medians.
SUMMARY = {
    "replay": {"records_per_s": highest, "result_s": lowest,
               "setup_s": lowest},
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("pipebench: build failed", file=sys.stderr)
        return 2

    # Start another iteration only if a typical one ends in time.
    iters, walls = [], []
    start = time.monotonic()
    while len(iters) < MIN_ITERS or (
            time.monotonic() - start + median(walls) < args.seconds):
        traced = args.trace == 1 and len(iters) % 2 == 1
        began = time.monotonic()
        iters.append(run_iteration(binary, args.workload, args.seed,
                                   len(iters), traced))
        walls.append(time.monotonic() - began)

    ok = [it for it in iters if it["ok"]]
    failed = len(iters) - len(ok)
    for it in iters:
        if not it["ok"]:
            print("iteration failed: %s" % it["error"], file=sys.stderr)
    # The checks are exact, so a passing iteration lost nothing and a
    # failed one counts every record it should have delivered as lost.
    typical = median([it["expected"] for it in ok]) or 1
    expected = [it.get("expected") or typical for it in iters]
    lost = sum(e for e, it in zip(expected, iters) if not it["ok"])
    lost_pct = 100.0 * lost / sum(expected)

    plain = [it for it in ok if not it["traced"]]
    summary = SUMMARY.get(args.workload, {})
    rps = summary.get("records_per_s", median)
    metrics = {}
    if args.trace == 0:
        for name, unit in END_TO_END:
            pick = summary.get(name, median)
            metrics[name] = {"value": pick([it[name] for it in plain]),
                             "unit": unit}
        report = dict(metrics)
        report["records_lost_pct"] = {"value": lost_pct, "unit": "%"}
    else:
        traced = [it for it in ok if it["traced"]]
        selfs = [self_times(it["spans"]) for it in traced]
        for name, unit, span in PER_LAYER:
            if span is None:
                vals = [it["counts"].get(name, 0.0) for it in traced]
            else:
                vals = [s.get(span, 0.0) for s in selfs]
            metrics[name] = {"value": median(vals), "unit": unit}
        metrics["records_lost_pct"] = {"value": lost_pct, "unit": "%"}
        rps_plain = rps([it["records_per_s"] for it in plain])
        rps_traced = rps([it["records_per_s"] for it in traced])
        overhead = 100.0 * (rps_plain / rps_traced - 1) if rps_traced else 0.0
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        report = metrics
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl"
                            % (args.workload, args.seed))
        with open(path, "w") as f:
            for it in traced:
                for row in it["spans"]:
                    f.write(json.dumps(row) + "\n")

    print("workload %s, seed %d: %d iterations, %d failed"
          % (args.workload, args.seed, len(iters), failed))
    for name, m in report.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": len(iters),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
