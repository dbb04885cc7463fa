#!/usr/bin/env python3
"""Builds the appscope benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest     # unit tests of the statistics helpers

Run from the repository root. The harness is built in Release mode under
$CARGO_TARGET_DIR (default .bench_build); the first run builds the appscope
libraries, later runs rebuild incrementally. The harness's output is passed
through; in a traced run each per-layer metric is followed by the end-to-end
metric and workloads it should move (perfbench/layers.json). The last line
is the JSON result. The metric names are checked against BENCHMARK.json.
Exits non-zero without a result when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
RUN_TIMEOUT_S = 170


def build(target):
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = [["cmake", "--build", BUILD, "-j4", "--target", target]]
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (see %s)" % log_path)
    return os.path.join(BUILD, target)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_stats_test")]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    harness = build("appscope_perfbench")
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD, "work")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out" % args.workload)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: %s failed (exit %d)" % (args.workload, proc.returncode))

    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(result["metrics"]) != sorted(expected):
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: metrics %s differ from BENCHMARK.json %s"
                 % (sorted(result["metrics"]), sorted(expected)))

    print("\n".join(lines[:-1]))
    if args.trace:
        with open(os.path.join(HERE, "layers.json")) as f:
            layers = {m["name"]: m for m in json.load(f)}
        for name, metric in result["metrics"].items():
            layer = layers[name]
            print("layer %s = %.6g %s -> moves %s on %s" % (
                name, metric["value"], metric["unit"],
                ", ".join(layer["moves"]), ", ".join(layer["on"])))
    print(lines[-1])


if __name__ == "__main__":
    main()
