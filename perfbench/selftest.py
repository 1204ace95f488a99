"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A short smoke run of every workload in ``workloads.py``, also one
   that ``BENCHMARK.json`` does not list (``--seconds 1``, so the least
   number of passes over its item set): the result line has exactly
   the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, every
   answer is correct, and the metrics are exactly the ``end_to_end``
   metrics of ``BENCHMARK.json`` with their units.
2. Two traced runs of one seed per workload print exactly the
   ``per_layer`` metrics with their units, and every ``calls`` count
   repeats exactly.
3. In a directory that holds only ``BENCHMARK.json`` and the benchmark's
   own files, the benchmark exits non-zero and prints no result.

Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3
FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def run(cwd, workload, trace, seconds=1):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(SEED),
                              "--seconds", str(seconds),
                              "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def result_of(proc, what):
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and lines, f"{what}: exits 0 with output")
    if proc.returncode != 0 or not lines:
        print(proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{what}: result keys")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1, f"{what}: every answer correct")
    return result


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def printed(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main():
    for w in sorted(WORKLOADS):
        res = result_of(run(ROOT, w, 0), f"{w} smoke")
        if res:
            check(printed(res) == declared("end_to_end"),
                  f"{w}: end-to-end names and units match BENCHMARK.json")
        traced = [result_of(run(ROOT, w, 1), f"{w} traced run {i}")
                  for i in (1, 2)]
        if all(traced):
            check(all(printed(r) == declared("per_layer") for r in traced),
                  f"{w}: per-layer names and units match BENCHMARK.json")
            calls = [{k: v["value"] for k, v in r["metrics"].items()
                      if k.endswith(".calls")} for r in traced]
            check(calls[0] == calls[1] and any(calls[0].values()),
                  f"{w}: per-layer call counts repeat exactly")
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in BENCH["paths"]:
            shutil.copytree(ROOT / p, Path(bare) / p,
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
        name = BENCH["workloads"][0]["name"]
        proc = run(bare, name, 0)
        check(proc.returncode != 0 and "correct" not in proc.stdout,
              "without src/ the benchmark fails and prints no result")
    print("selftest:", "FAILED " + "; ".join(FAILURES) if FAILURES
          else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
