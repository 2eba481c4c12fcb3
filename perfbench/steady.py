#!/usr/bin/env python3
"""Steadiness check: run one workload in two sets of N runs each.

    python3 perfbench/steady.py --workload chat-decode --runs 10

Run from the repository root. Each set runs seeds 1..N for
BENCHMARK.json's run_seconds. For every metric of each set the script
prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and their distance as a share of
the median, against the metric's bound. It then sets the two sets'
medians side by side, with the second's change in the metric's worse
direction. It also confirms that the counts serve.steps,
core.lut_reads, serve.evictions and sim.steps repeat exactly across
all runs, and that the share of failed requests is the same in every
run. Exits non-zero when a spread exceeds a third of its bound, a
median worsens by more than its bound, a count differs or a run fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTS = ("serve.steps", "core.lut_reads", "serve.evictions", "sim.steps")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: a correctness check failed")
    match = re.search(r"^counts (.*)$", proc.stderr, re.M)
    counts = dict(kv.split("=") for kv in match.group(1).split())
    return result, counts


def run_set(workload, runs, seconds, counts, shares):
    """Runs seeds 1..runs; returns each metric's values."""
    values = {}
    for seed in range(1, runs + 1):
        result, c = run_once(workload, seed, seconds)
        shares.add(result["failed"] / result["attempted"])
        counts.append(c)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    counts, shares, medians = [], set(), []
    for s in (1, 2):
        print(f"set {s}: {args.workload}, {args.runs} runs of {seconds} s",
              flush=True)
        values = run_set(args.workload, args.runs, seconds, counts, shares)
        print(f"{'metric':<24} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6}")
        med = {}
        for name, v in values.items():
            q1, med[name], q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med[name]
            bound = metrics[name]["bound"]
            flag = ""
            if spread > bound / 3:
                flag, ok = "  > bound/3", False
            print(f"{name:<24} {med[name]:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                  f" {spread:>8.2%} {bound:>6}{flag}")
        medians.append(med)
        print()

    print(f"{'metric':<24} {'set 1':>12} {'set 2':>12} {'worse by':>9}"
          f" {'bound':>6}")
    for name, first in medians[0].items():
        second = medians[1][name]
        change = (second - first) / first
        if metrics[name]["better"] == "higher":
            change = -change
        bound = metrics[name]["bound"]
        flag = ""
        if change > bound:
            flag, ok = "  > bound", False
        print(f"{name:<24} {first:>12.6g} {second:>12.6g} {change:>9.2%}"
              f" {bound:>6}{flag}")
    for name in COUNTS:
        seen = sorted({c[name] for c in counts})
        same = len(seen) == 1
        ok &= same
        print(f"{name}: {'repeats' if same else 'DIFFERS'} {seen}")
    print(f"failed share: {sorted(shares)}")
    ok &= len(shares) == 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
