#!/usr/bin/env python3
"""Steadiness report: runs one workload repeatedly and summarizes each metric.

    python3 benchmark/steady.py --workload mlp-digits [--runs 10] [--seconds S]
        [--first-seed 1] [--trace 0] [--save set.json] [--compare other.json]

Each run uses the next seed. For every metric the report prints the median,
the first and third quartile (Python's `statistics.quantiles(values, n=4)`)
and the relative spread (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json. `--save` keeps the set of runs; `--compare` reads an earlier
set and prints, per metric, how far the new median is from the old one in
the metric's worse direction, against its bound, and whether the share of
failed operations is the same. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run with seed {seed} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (med, med, med)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def report(runs, metrics):
    names = list(runs[0]["metrics"])
    print(f"{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, spread = summarize(values)
        bound = metrics.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:<36} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>7.3f} "
              f"{'' if bound is None else bound:>6} {flag}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")


def compare(old, new, metrics):
    print(f"\n{'metric':<36} {'old median':>14} {'new median':>14} {'worse by':>9} {'bound':>6}")
    for name in new[0]["metrics"]:
        spec = metrics.get(name)
        if spec is None or "bound" not in spec:
            continue
        a = statistics.median(r["metrics"][name]["value"] for r in old)
        b = statistics.median(r["metrics"][name]["value"] for r in new)
        worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        verdict = "ok" if worse <= spec["bound"] else "REGRESSED"
        print(f"{name:<36} {a:>14.6g} {b:>14.6g} {worse:>9.3f} {spec['bound']:>6} {verdict}")
    old_share = {r["failed"] / r["attempted"] for r in old}
    new_share = {r["failed"] / r["attempted"] for r in new}
    print(f"failed share: old {sorted(old_share)} new {sorted(new_share)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    spec, metrics = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        runs.append(run_once(args.workload, seed, seconds, args.trace))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), file=sys.stderr)
    report(runs, metrics)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f)
    if args.compare:
        with open(args.compare) as f:
            compare(json.load(f), runs, metrics)


if __name__ == "__main__":
    main()
