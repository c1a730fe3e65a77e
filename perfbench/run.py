#!/usr/bin/env python3
"""Crimson benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a Crimson source tree. Builds the harness
(perfbench/perf.exe) and the `crimson` binary with dune, runs one
workload and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 1 it also prints a
per-layer self-time table built from the run's span file.

Workloads: wire-deep, http-browse, ingest-eval (see perfbench/README.md).
"""

import argparse
import collections
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

WORKLOADS = ("wire-deep", "http-browse", "ingest-eval")
# Every run must end within 180 s; the build gets whatever is left.
RUN_BUDGET_S = 170.0


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    needed = ["dune-project", "lib", "bin", os.path.join("perfbench", "dune")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        fail("not a Crimson source tree (missing %s)" % ", ".join(missing), 2)
    if shutil.which("dune") is None:
        fail("dune is not installed", 2)
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "./perfbench/perf.exe", "./bin/crimson.exe"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")
    exe = os.path.join(build_dir, "default", "perfbench", "perf.exe")
    crimson = os.path.join(build_dir, "default", "bin", "crimson.exe")
    return exe, crimson


def stop_group(proc):
    """Stop the harness and every server it started, and reap them."""
    for sig, wait_s in ((signal.SIGTERM, 5), (signal.SIGKILL, 5)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        try:
            proc.wait(timeout=wait_s)
            return
        except subprocess.TimeoutExpired:
            pass


def run_harness(cmd, budget_s):
    """Stream the harness's output, holding back its last line (the
    result), which is returned. Fails when the harness fails or runs
    out of time."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    expired = threading.Event()

    def expire():
        expired.set()
        stop_group(proc)

    timer = threading.Timer(budget_s, expire)
    timer.start()

    def on_term(*_):
        stop_group(proc)
        sys.exit(1)

    signal.signal(signal.SIGTERM, on_term)
    previous = None
    try:
        for line in proc.stdout:
            if previous is not None:
                sys.stdout.write(previous)
                sys.stdout.flush()
            previous = line
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            stop_group(proc)
    if proc.returncode != 0:
        if previous is not None:
            sys.stderr.write(previous)
        fail("time budget exceeded" if expired.is_set()
             else "harness exited with %d" % proc.returncode)
    return previous


def self_time_report(spans_path, overhead):
    """Per-layer self time: a span's duration minus the time its children
    cover. Layers are span-name prefixes (op.* are the per-operation
    roots, whose self time is the harness's own glue between calls)."""
    spans = [json.loads(l) for l in open(spans_path)]
    child_time = collections.defaultdict(float)
    for s in spans:
        if s["parent"]:
            child_time[s["parent"]] += s["end"] - s["start"]
    by_name = collections.defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = by_name[s["name"]]
        row[0] += 1
        row[1] += s["end"] - s["start"]
        row[2] += (s["end"] - s["start"]) - child_time[s["id"]]
    ops = len({(s["name"], s["op"]) for s in spans if s["parent"] == 0})
    print("per-layer self time (%d spans over %d operations):" % (len(spans), ops))
    print("  %-24s %8s %12s %12s %14s" % ("span", "count", "total ms", "self ms", "self us/call"))
    layers = collections.defaultdict(lambda: [0, 0.0])
    for name in sorted(by_name, key=lambda n: -by_name[n][2]):
        count, total, self_s = by_name[name]
        print("  %-24s %8d %12.2f %12.2f %14.2f"
              % (name, count, total * 1e3, self_s * 1e3, self_s * 1e6 / count))
        layer = name.split(".")[0]
        layers[layer][0] += count
        layers[layer][1] += self_s
    print("  by layer:")
    for layer in sorted(layers, key=lambda l: -layers[l][1]):
        count, self_s = layers[layer]
        print("  %-24s %8d %12s %12.2f" % (layer, count, "", self_s * 1e3))
    if overhead is not None:
        print("tracing overhead (traced minus untraced replay, op p50): %+.2f%%" % overhead)


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description="Crimson benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    exe, crimson = build(build_dir)

    work = os.path.join("_perfbench", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    spans = os.path.join("_perfbench", args.workload + ".spans.jsonl")
    if os.path.exists(spans):
        os.remove(spans)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--crimson", crimson]
    if args.trace:
        cmd += ["--spans", spans]
    # The build may have used the long first-run allowance; the run
    # itself gets its own budget.
    result = run_harness(cmd, RUN_BUDGET_S)
    shutil.rmtree(work, ignore_errors=True)
    try:
        parsed = json.loads(result)
    except (TypeError, ValueError):
        fail("harness printed no result")
    if args.trace:
        overhead = parsed["metrics"].get("trace.overhead_pct", {}).get("value")
        self_time_report(spans, overhead)
    print("setup+run wall time: %.1f s" % (time.monotonic() - start))
    print(result.strip())


if __name__ == "__main__":
    main()
