#!/usr/bin/env python3
"""Paired benchmark runs of a base commit against the work tree.

Usage:
    scripts/bench_pairs.py BASE_REF --workload W [--pairs N] [--seed-base K]
    scripts/bench_pairs.py --selftest

Exports BASE_REF with `git archive`, and the work tree as `git stash create`
records it (HEAD when the tree is clean; untracked files are left out, so
`git add` new files first), each under .bench_build/pairs/<tree hash>/. Each
export is built and run through its own perfbench/run.py, in Release under
its own .bench_build/. One discarded warm-up run per side builds it.

Then runs N pairs (at least 10, the default) of `perfbench/run.py
--workload W --seed K+i --seconds S --trace 0`, S being BENCHMARK.json's
run_seconds, base first in even pairs and the work tree first in odd ones,
and prints, for each end-to-end metric of BENCHMARK.json: both medians,
their ratio (work tree / base), the pairs the work tree won, the base's
interquartile range, whether the gap between the medians exceeds it, and
the failed operations on each side. `peak_rss_mb` (printed by the harness
above its JSON line) is reported the same way, for information.

This script reports; it gates nothing. Quartiles interpolate linearly
between order statistics (numpy's default).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS_DIR = os.path.join(ROOT, ".bench_build", "pairs")
RSS_PREFIX = "peak_rss_mb = "
MIN_PAIRS = 10


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(commit):
    """Exports `commit` under PAIRS_DIR, named by its tree hash; reuses an
    earlier export of the same tree (and so its incremental build)."""
    tree = git("rev-parse", commit + "^{tree}")
    dest = os.path.join(PAIRS_DIR, tree[:12])
    if not os.path.exists(os.path.join(dest, ".exported")):
        shutil.rmtree(dest, ignore_errors=True)
        os.makedirs(dest)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit("bench_pairs: git archive %s failed" % commit)
        open(os.path.join(dest, ".exported"), "w").close()
    return dest


def run_once(tree, workload, seed, seconds):
    """One run.py invocation in `tree`. Returns (metrics, attempted, failed,
    peak_rss_mb); metrics is None when the run produced no result."""
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    lines = proc.stdout.splitlines()
    rss = None
    for line in lines:
        if line.startswith(RSS_PREFIX):
            rss = float(line[len(RSS_PREFIX):].split()[0])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout[-2000:])
        return None, 0, 0, rss
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, result.get("attempted", 0), result.get("failed", 0), rss


def quartiles(values):
    """(q1, median, q3), linearly interpolated; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(base, head, lower_is_better):
    """Summary of paired samples (base[i] and head[i] ran as pair i)."""
    assert len(base) == len(head) and base
    q1, base_median, q3 = quartiles(base)
    head_median = quartiles(head)[1]
    wins = sum(1 for b, h in zip(base, head)
               if (h < b if lower_is_better else h > b))
    gap = abs(head_median - base_median)
    return {
        "base_median": base_median,
        "head_median": head_median,
        "ratio": head_median / base_median if base_median else float("nan"),
        "wins": wins,
        "pairs": len(base),
        "base_iqr": q3 - q1,
        "gap_exceeds_iqr": gap > q3 - q1,
    }


def benchmark(tree):
    """(run_seconds, [(end-to-end metric, lower is better)]) of the tree's
    BENCHMARK.json."""
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["run_seconds"], [(m["name"], m["better"] == "lower")
                                 for m in spec["end_to_end"]]


def selftest():
    s = compare([10.0, 12.0, 11.0, 13.0], [9.0, 12.5, 10.0, 11.0], True)
    assert s["base_median"] == 11.5 and s["head_median"] == 10.5, s
    assert abs(s["ratio"] - 10.5 / 11.5) < 1e-12, s
    assert s["wins"] == 3 and s["pairs"] == 4, s
    # base sorted 10, 11, 12, 13: q1 = 10.75, q3 = 12.25.
    assert abs(s["base_iqr"] - 1.5) < 1e-12, s
    assert not s["gap_exceeds_iqr"], s
    s = compare([1.0, 2.0, 3.0], [3.0, 4.0, 2.0], False)
    assert s["wins"] == 2 and s["ratio"] == 1.5 and s["base_iqr"] == 1.0, s
    assert not s["gap_exceeds_iqr"], s  # gap 1.0 is not past the IQR 1.0
    s = compare([100.0, 101.0, 99.0, 100.0], [80.0, 81.0, 79.0, 80.0], True)
    assert s["wins"] == 4 and s["gap_exceeds_iqr"], s
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    print("bench_pairs selftest: ok")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base_ref", nargs="?")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return
    if not args.base_ref or not args.workload:
        parser.error("BASE_REF and --workload are required")
    if args.pairs < MIN_PAIRS:
        parser.error("--pairs must be >= %d" % MIN_PAIRS)

    head_commit = git("stash", "create") or "HEAD"
    sides = {"base": export(git("rev-parse", args.base_ref + "^{commit}")),
             "head": export(head_commit)}
    for side, tree in sides.items():
        print("%s: %s" % (side, tree), flush=True)
        if run_once(tree, args.workload, args.seed_base - 1, 1)[0] is None:
            sys.exit("bench_pairs: the %s warm-up run failed" % side)
    seconds, metrics = benchmark(sides["head"])

    samples = {"base": [], "head": []}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            samples[side].append(
                run_once(sides[side], args.workload, seed, seconds))
        print("pair %d seed %d: %s" % (i, seed, "  ".join(
            "%s %s peak_rss_mb %s" % (
                side, json.dumps(samples[side][-1][0], sort_keys=True),
                samples[side][-1][3])
            for side in ("base", "head"))), flush=True)

    for side in ("base", "head"):
        failed_runs = sum(1 for s in samples[side] if s[0] is None)
        print("%s: %d runs without a result, %d of %d operations failed" % (
            side, failed_runs, sum(s[2] for s in samples[side]),
            sum(s[1] for s in samples[side])))
    complete = [i for i in range(args.pairs)
                if all(samples[side][i][0] is not None for side in samples)]
    if not complete:
        sys.exit("bench_pairs: no pair completed")

    print("%-16s %12s %12s %7s %6s %10s %8s" % (
        "metric", "base median", "head median", "ratio", "won",
        "base IQR", "gap>IQR"))
    rows = [(name, lower, lambda s, n=name: s[0][n])
            for name, lower in metrics]
    if all(samples[side][i][3] is not None for side in samples for i in complete):
        rows.append(("peak_rss_mb", True, lambda s: s[3]))
    for name, lower, value in rows:
        s = compare([value(samples["base"][i]) for i in complete],
                    [value(samples["head"][i]) for i in complete], lower)
        print("%-16s %12.6g %12.6g %7.3f %3d/%-2d %10.4g %8s" % (
            name, s["base_median"], s["head_median"], s["ratio"], s["wins"],
            s["pairs"], s["base_iqr"], "yes" if s["gap_exceeds_iqr"] else "no"))


if __name__ == "__main__":
    main()
