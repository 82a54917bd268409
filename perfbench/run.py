"""Run the repository benchmark.

One workload, as ``BENCHMARK.json``'s command runs it::

    python3 perfbench/run.py --workload fabric_exact --seed 3 \\
        --seconds 20 --trace 0

prints the readable report, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics (host wall time, tracing off); ``--trace 1``
reports the per-layer metrics of a separate traced run.

All three workloads, every metric, in one command::

    python3 perfbench/run.py --all --seconds 20 [--trace 1]

Work runs in fresh interpreters started from this file (``bench.py``);
caches and span dumps go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from names import END_TO_END, PER_LAYER, WORKLOADS
from stats import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: Fresh interpreters timed to their first result per run; the measuring
#: process is one of them.
SETUP_SAMPLES = 3

#: Wall-clock budget of one run; a run must end within 180 seconds.
RUN_BUDGET = 170.0


class BenchError(RuntimeError):
    pass


def child(role: str, workload: str, seed: int, seconds: float,
          deadline: float, between=None) -> dict:
    """Run ``bench.py <role>`` in a fresh interpreter; its last line.

    A ``measure`` child stops ``len(between)`` times; each stop runs
    the next callable of *between* before the child continues.
    """
    between = list(between or ())
    work = WORK / f"work-{os.getpid()}-{role}-{workload}"
    err_path = WORK / f"stderr-{os.getpid()}-{role}-{workload}.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    spans = WORK / f"spans-{workload}-seed{seed}.json"
    cmd = [sys.executable, str(HERE / "bench.py"), role,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work", str(work),
           "--spans", str(spans), "--pauses", str(len(between)),
           "--spawned", repr(time.time())]
    with open(err_path, "w+") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)
        watchdog = threading.Timer(max(1.0, deadline - time.time()),
                                   os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            lines = []
            for line in proc.stdout:
                if line.strip() == "PAUSE" and between:
                    between.pop(0)()
                    proc.stdin.write("\n")
                    proc.stdin.flush()
                else:
                    lines.append(line)
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            shutil.rmtree(work, ignore_errors=True)
        err.seek(0)
        tail = err.read().strip().splitlines()[-15:]
    err_path.unlink()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} {workload} exited {proc.returncode}:\n"
                         + "\n".join(tail))
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """One run of one workload; returns the result object."""
    if trace:
        reply = child("trace", workload, seed, seconds, deadline)
        units = PER_LAYER
        values = reply["layers"]
        replies = [reply]
    else:
        extras = []

        def setup_sample():
            extras.append(child("setup", workload, seed, seconds, deadline))

        reply = child("measure", workload, seed, seconds, deadline,
                      between=[setup_sample] * (SETUP_SAMPLES - 1))
        replies = [reply] + extras
        setups = [r["setup_s"] for r in replies]
        units = END_TO_END
        values = dict(reply["metrics"], setup_s=median(setups))
        reply["extra"]["setup_s_samples"] = setups
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    attempted = sum(r["attempted"] for r in replies)
    failed = sum(r["failed"] for r in replies)
    problems = [p for r in replies for p in r["problems"]]
    reply.setdefault("extra", {})["golden_checked"] = sum(
        r["golden_checked"] for r in replies)
    return {
        "workload": workload,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "extra": reply.get("extra", {}),
        "problems": problems,
    }


def extra_unit(name: str) -> str:
    """Unit of a report-only value (see ``bench.Loop.metrics``)."""
    if name == "oracle_error_pct":
        return "%"
    if name.endswith("_ratio") or name.startswith("host_speed"):
        return "ratio"
    if name.endswith("_n") or name in ("points_resolved", "passes",
                                       "golden_checked"):
        return "count"
    return "s"


def describe(result: dict) -> str:
    lines = [f"== {result['workload']}: "
             f"{result['attempted']} points checked, "
             f"{result['failed']} failed "
             f"(failed_ratio {result['failed'] / result['attempted']:g})"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<34} {metric['value']:>14.6g} "
                     f"{metric['unit']}")
    for name, value in sorted(result["extra"].items()):
        if name not in result["metrics"]:
            lines.append(f"  {name:<34} {value!s:>14} {extra_unit(name)}")
    for problem in result["problems"][:10]:
        lines.append(f"  FAILED {problem}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print every metric")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.all or args.workload):
        parser.error("give --workload NAME or --all")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = WORKLOADS if args.all else (args.workload,)
    results = []
    try:
        for name in names:
            deadline = time.time() + RUN_BUDGET
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), deadline)
            print(describe(result), flush=True)
            results.append(result)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.all:
        print(json.dumps({r["workload"]: r["metrics"] for r in results}))
        return 0
    result = results[0]
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
