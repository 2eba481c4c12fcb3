#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Run from the repository root. Feeds each check a deliberately wrong
input through the binary's --perturb option and confirms that the run
reports "correct": false, names the failed check on stderr and exits
non-zero; an unperturbed run must pass. Last, it copies only
BENCHMARK.json and perfbench/ into .bench_build/bare/ and confirms the
benchmark exits non-zero there without printing a result, since it
cannot build without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD = "replay-sweep"  # the shortest serving rounds

# perturbation -> text the failed check prints
CASES = {
    "core-reference": "lutGemm relative error",
    "solo-seed": "differs from its solo re-serve",
    "budget": "did not decode exactly its budget",
    "final-prefill": "final life prefilled a partial prompt",
    "prefill-sum": "prefill tokens differ",
    "lut-reads": "step lut reads differ",
    "retire-count": "engine retired count differs",
    "schedule": "took another schedule than round 1",
    "replay-queue": "replays left requests incomplete",
    "replay-steps": "replay sweep step count changed",
    "tops-order": "TOPS/W does not fall",
    "tops-best": "FIGLUT-I is not the most efficient",
}


def bench(cwd, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", WORKLOAD, "--seed", "5", "--seconds", "1",
           "--trace", "0", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    failures = []

    proc = bench(ROOT)
    res = result_of(proc)
    if proc.returncode != 0 or not res or not res["correct"]:
        failures.append("unperturbed run did not pass")
    print(f"control: exit {proc.returncode}")

    for name, text in CASES.items():
        proc = bench(ROOT, "--perturb", name)
        res = result_of(proc)
        ok = (proc.returncode != 0 and res is not None
              and res["correct"] is False and text in proc.stderr)
        print(f"{name}: exit {proc.returncode}, "
              f"{'caught' if ok else 'NOT CAUGHT'}")
        if not ok:
            failures.append(name)

    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    proc = bench(bare)
    ok = proc.returncode != 0 and result_of(proc) is None
    print(f"bare checkout: exit {proc.returncode}, "
          f"{'refused' if ok else 'NOT REFUSED'}")
    if not ok:
        failures.append("bare checkout")
    shutil.rmtree(bare, ignore_errors=True)

    if failures:
        print("FAILED: " + ", ".join(failures))
        return 1
    print("all checks caught their perturbation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
