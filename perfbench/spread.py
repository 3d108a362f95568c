#!/usr/bin/env python3
"""Runs the benchmark on one workload over several seeds and prints, for
each metric, the median and the spread (interquartile distance over the
median, as statistics.quantiles(values, n=4) gives the quartiles).

    python3 perfbench/spread.py --workload chess-mr --seeds 1-10 [--trace 1]

Run it from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    first, last = (int(x) for x in args.seeds.split("-"))
    values = {}
    for seed in range(first, last + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect result {res}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            print(f"{name:28s} median {med:.6g}  spread {(q[2] - q[0]) / med:.4f}")
        else:
            print(f"{name:28s} median {med:.6g}")


if __name__ == "__main__":
    main()
