"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workload NAME ...]

Runs the benchmark once per seed (seeds 1..10, one process at a time)
and prints, per workload and metric, the median and the distance between
the first and third quartiles as a share of the median, next to a third
of the metric's bound from ``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for name in args.workload or names:
        values = {m: [] for m in bounds}
        for seed in SEEDS:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"] and proc.returncode == 0
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(name, seed, json.dumps(
                {m: round(v[-1], 4) for m, v in values.items()}),
                flush=True)
        for m, v in values.items():
            s = spread(v)
            flag = "" if s < bounds[m] / 3 else "  <-- wide"
            print(f"{name:16} {m:14} median {statistics.median(v):10.4f}"
                  f"  spread {s:.4f}  bound/3 {bounds[m] / 3:.4f}{flag}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
