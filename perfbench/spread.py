#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per metric, the median
and the quartile spread (Q3 - Q1) / median of the runs.

Run from the repository root:

    python3 perfbench/spread.py --workloads pairs,search --seeds 1-10 [--trace 1]

The run length is `run_seconds` from BENCHMARK.json. Every run's last
stdout line is appended to `--log` (default `.bench_work/spread.jsonl`).
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log", default=".bench_work/spread.jsonl")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            with open(args.log, "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed, "result": last[0]}) + "\n")
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            runs.append(json.loads(last[0]))
        print(f"== {workload}: {len(runs)} runs")
        for name in runs[0]["metrics"] if runs else []:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread <= bound / 3 else ("  WIDE" if spread <= bound else "  OVER"))
            print(f"  {name:<28} median {med:14.4f}  spread {spread:7.3f}  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
