#!/usr/bin/env python3
"""Build and run the repo benchmark, then print its result as JSON.

    python3 perfbench/run.py --workload fleet_zipf --seed 1 --seconds 30 --trace 0

Run from the repository root. The script builds perfbench/ (which
compiles ../src) with CMake into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the `perfbench` binary for one workload,
and prints the binary's report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the `end_to_end` entries of
BENCHMARK.json, with --trace 1 its `per_layer` entries. A per-layer
metric the workload does not exercise (say `net.round_trip_ms` in
train_calibrate) reads 0. Any build or run failure exits non-zero
without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def source_id(root):
    """The git SHA when the tree is a git checkout, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sha1:" + h.hexdigest()[:16]


def build(root, build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def parse_report(lines):
    """Metric lines -> {kind: {name: (value, unit)}} plus the result."""
    found = {"metric": {}, "layer": {}}
    result = None
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] in found:
            found[parts[0]][parts[1]] = (float(parts[2]), parts[3])
        elif parts and parts[0] == "result":
            result = dict(p.split("=", 1) for p in parts[1:])
    return found, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("not a full checkout: %s is missing" % needed)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build_dir = os.path.join(target, "perfbench")
    build(root, build_dir)
    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--source", source_id(root)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail("benchmark exited with code %d" % done.returncode)
    lines = done.stdout.splitlines()
    for line in lines:
        print(line)
    found, result = parse_report(lines)
    if result is None:
        fail("benchmark printed no result line")

    kind, wanted = ("layer", spec["per_layer"]) if args.trace else \
        ("metric", spec["end_to_end"])
    metrics = {}
    for m in wanted:
        value, unit = found[kind].get(m["name"], (None, m["unit"]))
        if value is None:
            if kind == "metric":
                fail("end-to-end metric %s was not measured" % m["name"])
            value = 0.0  # this workload does not exercise the layer
        if unit != m["unit"]:
            fail("metric %s measured in %s, declared in %s"
                 % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": result["correct"] == "1",
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
