"""Run the benchmark over seeds 1-10 and summarise each metric's spread.

    python3 perfbench/sweep.py [--out perfbench/baseline.json]

Runs ``BENCHMARK.json``'s command once per workload and seed, one run at
a time, with its ``run_seconds``, and keeps each run's result and ``# info``
record (python, nproc, commit, seed).  For every end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median next to the metric's bound.  It adds one traced
run per workload, with seed 1.  ``--out`` writes every run and the summary
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACE_SEED = 1


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = next(json.loads(line[len("# info "):]) for line in lines
                          if line.startswith("# info "))
    result["elapsed_s"] = time.perf_counter() - start
    return result


def summarise(spec: dict, runs: list) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {
            "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": metric["bound"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {
        "command": " ".join(["python3", "perfbench/sweep.py", *(argv or sys.argv[1:])]),
        "run_command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(spec, workload, seed, trace=0))
            print(f"{workload} seed {seed}: {runs[-1]['elapsed_s']:.1f} s, "
                  f"failed {runs[-1]['failed']}/{runs[-1]['attempted']}", file=sys.stderr)
        entry = {"runs": runs, "summary": summarise(spec, runs),
                 "trace": run_once(spec, workload, TRACE_SEED, trace=1)}
        report["workloads"][workload] = entry
        print(f"\n{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
        for name, row in entry["summary"].items():
            flag = "ok" if row["spread"] < row["bound"] / 3 else (
                "within bound" if row["spread"] <= row["bound"] else "TOO WIDE")
            print(f"  {name:16} median {row['median']:12.6g} {row['unit']:5} "
                  f"spread {row['spread']:.3f} (bound {row['bound']}) {flag}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
