#!/usr/bin/env python3
"""Steadiness check for the benchmark: run each workload once per seed
and print, per end-to-end metric, the median, the quartiles and the
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py                      # every workload, seeds 1..10
    python3 perfbench/steady.py --workloads explore --seeds 5 --first-seed 11

Quartiles are Python's statistics.quantiles(values, n=4). A spread at or
under a third of its bound is marked "ok"; under the bound "marginal";
above it "WIDE". setup_s is reported but its spread is not judged (only
its median is gated). The share of failed operations must be identical
in every run. Workloads run interleaved per seed, so slow drifts of the
machine spread over all of them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(args, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, p.returncode))
    return json.loads(lines[-1]), wall


def main():
    root = os.getcwd()
    bench = load_benchmark(root)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload, one seed each")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--json", help="also write every run's result to this file")
    opts = ap.parse_args()

    metrics = bench["end_to_end"] if opts.trace == 0 else bench["per_layer"]
    workloads = opts.workloads.split(",")
    results = {w: [] for w in workloads}
    walls = {w: [] for w in workloads}
    for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
        for w in workloads:
            res, wall = run_once(root, bench["command"], w, seed, opts.seconds, opts.trace)
            results[w].append(res)
            walls[w].append(wall)
            print("%-10s seed %-4d %6.1fs  attempted %-7d failed %d" % (w, seed, wall, res["attempted"], res["failed"]), flush=True)

    if opts.json:
        with open(opts.json, "w") as f:
            json.dump({"seconds": opts.seconds, "results": results, "walls": walls}, f, indent=1)

    print()
    print("%-10s %-26s %12s %12s %12s %8s %6s  %s" % ("workload", "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            verdict = ""
            if bound is not None and m["name"] != "setup_s":
                verdict = "ok" if spread <= bound / 3 else ("marginal" if spread <= bound else "WIDE")
            print("%-10s %-26s %12.6g %12.6g %12.6g %7.1f%% %6s  %s" % (
                w, m["name"], med, q1, q3, 100 * spread, "" if bound is None else "%g" % bound, verdict))
        print("%-10s failed share %s; run wall time max %.1fs, mean %.1fs" % (
            w, "identical" if len(shares) == 1 else "DIFFERS %s" % sorted(shares), max(walls[w]), statistics.mean(walls[w])))
    n = len(workloads)
    mean_wall = statistics.mean(x for w in workloads for x in walls[w])
    print("\nestimated time for %d runs (4 + 22 x %d workloads): %.0fs" % (4 + 22 * n, n, (4 + 22 * n) * mean_wall))


if __name__ == "__main__":
    main()
