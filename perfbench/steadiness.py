#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Runs each workload repeatedly (one seed per run) and prints, for every
end-to-end metric, its median, quartiles, interquartile spread and
largest single-run deviation, both as shares of the median, against the
metric's bound. Exits 1 when a spread or deviation exceeds its bound
(setup_s is bounded only between two sets of runs, so its spread is
reported but never fails). With --save the medians are written to a
file; with --against a second set's medians are compared with a saved
first set, failing when one is worse by more than its bound.

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 10 --save first.json
    python3 perfbench/steadiness.py --runs 10 --seed-base 1000 --against first.json

Every run is as long as BENCHMARK.json's run_seconds, and every
workload it names is run. Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} reported incorrect results:\n{out.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--save", default=None, help="write medians to this file")
    parser.add_argument("--against", default=None, help="compare medians with a saved set")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    saved = {}
    if opts.against:
        with open(opts.against) as f:
            saved = json.load(f)

    medians = {}
    ok = True
    for workload in workloads:
        runs = [run_once(bench["command"], workload, opts.seed_base + i, seconds)
                for i in range(opts.runs)]
        print(f"\n{workload}: {opts.runs} runs of {seconds} s, seeds "
              f"{opts.seed_base}..{opts.seed_base + opts.runs - 1}")
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr':>7} {'maxdev':>7} {'bound':>6}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            iqr = (q3 - q1) / med if med else 0.0
            maxdev = max(abs(v - med) for v in values) / med if med else 0.0
            medians.setdefault(workload, {})[name] = med
            verdict = ""
            if name != "setup_s" and (iqr > bound or maxdev > bound):
                verdict = "  SPREAD OVER BOUND"
                ok = False
            elif name != "setup_s" and iqr > bound / 3:
                verdict = "  iqr over a third of the bound"
            first = saved.get(workload, {}).get(name)
            if first:
                worse = (med - first) / first
                if metric["better"] == "higher":
                    worse = -worse
                verdict += f"  vs saved {first:.6g} ({worse:+.1%} worse)"
                if worse > bound:
                    verdict += " REGRESSION OVER BOUND"
                    ok = False
            print(f"  {name:16} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{iqr:7.1%} {maxdev:7.1%} {bound:6.0%}{verdict}")
    if opts.save:
        with open(opts.save, "w") as f:
            json.dump(medians, f, indent=2)
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
