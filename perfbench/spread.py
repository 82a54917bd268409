"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] \\
        [--first-seed 1] [--seconds 20]

Runs ``run.py`` once per seed and workload, one after the other, and
prints per metric the median and the distance between the first and
third quartiles as a share of the median, next to the metric's bound
from ``BENCHMARK.json``.  Every run's JSON line is kept in
``.perfbench/spread-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from names import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = {}
    log = ROOT / ".perfbench" / f"spread-{int(time.time())}.json"
    log.parent.mkdir(exist_ok=True)
    for workload in args.workload or WORKLOADS:
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.time()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["elapsed"] = time.time() - started
            runs[workload].append(result)
            log.write_text(json.dumps(runs, indent=1))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['elapsed']:.0f}s", flush=True)
        for name in runs[workload][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            med = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else (
                    "WITHIN BOUND" if spread < bound else "OVER BOUND")
            print(f"  {workload:<18} {name:<16} median {med:<12.6g} "
                  f"spread {spread:7.2%}  bound {bound}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
