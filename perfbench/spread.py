"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py WORKLOAD SEED... [--seconds S]

Spread is the distance between the first and third quartile of the
per-run values (statistics.quantiles, n=4) as a share of their median;
compare it with the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: incorrect output\n{out}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                                           if k in {e['name'] for e in bench['end_to_end']}), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, xs in values.items():
        if name not in bounds or len(xs) < 2:
            continue
        q1, _, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        print(f"{name}: median {med:.4g}, spread {(q3 - q1) / med:.3f}, "
              f"bound {bounds[name]}")


if __name__ == "__main__":
    main()
