#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

Runs the benchmark command from BENCHMARK.json ten times per workload, each
with another seed, and prints for each metric the median and the distance
between the first and third quartile as a share of the median — the figure a
metric's bound has to stay clear of (aim for a third of the bound). The bounded
metrics come from the run's JSON line; the timing diagnostics that carry no
bound (throughput, CPU per arrival, latencies) are read off the run's printed
table and listed without a verdict. With --write (and seeds starting at 1) it
also records, for each workload it ran, the seed-1 run's counts and every
metric's median and spread over the runs in bench/baseline.json — what
`jitperf -check` compares the bounded metrics against.

    python3 bench/calibrate.py [--runs 10] [--first-seed 1] [--workload name] [--write]
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One printed metric: two spaces, the name, the value, the unit.
ROW = re.compile(r"^  (\S+)\s+(-?[0-9.]+) (\S+)$")
SHOWN = ("e2e.peak_arrivals_per_s", "e2e.cpu_us_per_arrival", "e2e.latency_p50_ms_lo", "e2e.latency_p50_ms_hi",
         "e2e.latency_p95_ms_lo", "e2e.latency_p95_ms_hi")


def run(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.time()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        m = ROW.match(line)
        if m and m.group(1) in SHOWN:
            values[m.group(1)] = float(m.group(2))
    return result, values, time.time() - start


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--write", action="store_true")
    ap.add_argument("--repeat-seed", action="store_true", help="use --first-seed for every run: machine noise alone")
    ap.add_argument("--raw", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    path = ROOT / "bench" / "baseline.json"
    baseline = json.loads(path.read_text()) if path.exists() else {}
    for w in args.workload or [w["name"] for w in spec["workloads"]]:
        values, took = {}, []
        for i in range(args.runs):
            seed = args.first_seed if args.repeat_seed else args.first_seed + i
            result, vals, secs = run(spec, w, seed)
            took.append(secs)
            for name, v in vals.items():
                values.setdefault(name, []).append(v)
            if seed == 1:
                record = {"seed": 1, "seconds": spec["run_seconds"], "attempted": result["attempted"],
                          "exact": {"cost_units_per_arrival": vals["cost_units_per_arrival"]}}
        print(f"\n{w}: {args.runs} runs, {statistics.median(took):.1f} s each (median)")
        print(f"  {'metric':<26} {'median':>14} {'iqr/median':>11} {'bound':>7}  verdict")
        medians, spreads = {}, {}
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else 0.0
            medians[name], spreads[name] = med, round(spread, 4)
            if name in bounds:
                bound = f"{bounds[name]:>7.2f}"
                verdict = "ok" if spread < bounds[name] / 3 else ("within bound" if spread < bounds[name] else "TOO WIDE")
            else:
                bound, verdict = f"{'-':>7}", "no bound"
            print(f"  {name:<26} {med:>14.4f} {spread:>11.4f} {bound}  {verdict}")
            if args.raw:
                print("    " + " ".join(f"{v:.4g}" for v in vs))
        if args.write and not args.repeat_seed and args.first_seed == 1:
            baseline[w] = dict(record, runs=args.runs, median=medians, spread=spreads)
    if args.write:
        path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
