#!/usr/bin/env python3
"""Runs two sets of benchmark runs and prints each end-to-end metric's
spread against its bound in BENCHMARK.json.

Run from the root of the source tree:

    python3 benchmark/spread.py --workload dblp-mixed --runs 10
    python3 benchmark/spread.py --workload dblp-mixed --runs 5 --sets 1

Run i of the first set uses seed i, and the second set continues the
seeds. For every metric it prints, per set, the median with the first and
third quartile (statistics.quantiles(values, n=4)) and the spread, their
distance over the median, then the shift of the second set's median from
the first's, as a Markdown table. A spread or shift above the metric's
bound is flagged with "!" and makes the exit code 1. A run that fails, is
incorrect or reports a failed operation stops the script. The steal time
each run saw is printed beside it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run with seed {seed} exited {out.returncode}")
    result = json.loads(lines[-1])
    diag = json.loads(lines[-2])["diagnostics"] if len(lines) > 1 else {}
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
    return result, diag


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    sets, steals = [], []
    seed = 1
    for s in range(args.sets):
        runs, steal = [], []
        for _ in range(args.runs):
            result, diag = run_once(bench["command"], args.workload, seed, bench["run_seconds"])
            runs.append(result)
            steal.append(diag.get("steal_s", -1))
            print(f"set {s + 1} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} steal {steal[-1]:.1f}s "
                  f"in {diag.get('elapsed_s', 0):.1f}s", flush=True)
            seed += 1
        sets.append(runs)
        steals.append(steal)

    print()
    for i, steal in enumerate(steals):
        print(f"steal per run, set {i + 1}: {min(steal):.1f}-{max(steal):.1f} s "
              f"(median {statistics.median(steal):.1f} s)")
    print()
    head = "| metric |" + "".join(f" set {i + 1} median [q1, q3] | spread |" for i in range(len(sets)))
    print(head + (" shift |" if len(sets) == 2 else "") + " bound |")
    print("|---" * (2 + 2 * len(sets) + (len(sets) == 2)) + "|")
    ok = True
    for name, spec in bounds.items():
        bound = spec["bound"]
        row, meds = f"| `{name}` |", []
        for runs in sets:
            q1, med, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in runs], n=4)
            sp = (q3 - q1) / med
            meds.append(med)
            flag = "!" if sp > bound else ""
            ok = ok and not flag
            row += f" {med:.4g} [{q1:.4g}, {q3:.4g}] | {sp:.3f}{flag} |"
        if len(meds) == 2:
            worse = (meds[1] - meds[0]) / meds[0]
            if spec["better"] == "higher":
                worse = -worse
            flag = "!" if worse > bound else ""
            ok = ok and not flag
            row += f" {worse:+.3f}{flag} |"
        print(row + f" {bound} |")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
