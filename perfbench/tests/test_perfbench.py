"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stats
from layers import ledger
from names import END_TO_END, LEDGER_LAYERS, PER_LAYER, WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def bench(role, workload, tmp_path, seconds="0.1"):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "bench.py"), role, "--workload",
         workload, "--seed", "0", "--seconds", seconds,
         "--work", str(tmp_path / "work"),
         "--spans", str(tmp_path / "spans.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_has_no_failures(workload, tmp_path):
    reply = bench("measure", workload, tmp_path)
    assert reply["attempted"] >= 2
    assert reply["failed_ratio"] == 0, reply["problems"]
    assert reply["golden_checked"] >= 1
    assert set(END_TO_END) - {"setup_s"} <= set(reply["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_every_layer(workload, tmp_path):
    reply = bench("trace", workload, tmp_path, seconds="0.5")
    layers = reply["layers"]
    assert reply["failed_ratio"] == 0, reply["problems"]
    assert set(layers) == set(PER_LAYER)
    parts = [layers[f"ledger.{name}_s"] for name in LEDGER_LAYERS]
    parts.append(layers["ledger.unattributed_s"])
    assert math.isclose(sum(parts), layers["ledger.wall_s"], rel_tol=1e-9)
    assert layers["tracing.overhead_ratio"] > 0
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["workload"] == workload and spans["phases"]


def test_percentile_rule():
    assert stats.tail_percentile(39) is None
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(99) == 75.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(999) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10000) == 99.9
    small = stats.timing_summary("point_s", [float(i) for i in range(99)])
    assert "point_s_p90" not in small and "point_s_p75" in small
    assert small["point_s_n"] == 99 and small["point_s_p50"] == 49.0
    large = stats.timing_summary("point_s", [float(i) for i in range(100)])
    assert large["point_s_p90"] == pytest.approx(89.1)
    assert "point_s_p75" not in large


def test_self_time_subtracts_children_once():
    spans = [
        (0, None, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 0, "b", 3.0, 6.0),      # overlaps a: covered time counts once
        (3, 1, "a.child", 2.0, 3.0),
        (4, 0, "late", 9.5, 12.0),  # clipped to the parent's end
    ]
    selfs = stats.self_times(spans)
    assert selfs == {0: pytest.approx(4.5), 1: pytest.approx(2.0),
                     2: pytest.approx(3.0), 3: pytest.approx(1.0),
                     4: pytest.approx(2.5)}


def test_ledger_sums_to_wall():
    # [id, parent, name, start, end, inside a profiled region]
    spans = [
        [0, None, "point", 0.0, 10.0, False],
        [1, 0, "extrapolator", 0.5, 2.5, False],
        [2, 0, "taskgraph", 3.0, 9.0, False],
        [3, 2, "network", 4.0, 5.0, True],   # profiled, not span-charged
        [4, None, "point", 20.0, 21.0, False],
    ]
    totals = ledger(spans, {"engine": 2.0, "network": 3.0, "tracing": 0.5})
    assert totals["wall"] == 11.0
    assert totals["extrapolator"] == 2.0
    assert totals["network"] == 3.0
    parts = sum(totals[name] for name in LEDGER_LAYERS)
    assert parts + totals["unattributed"] == pytest.approx(11.0)
    assert totals["unattributed"] == pytest.approx(11.0 - 2.0 - 5.5)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    names = list(END_TO_END) + list(PER_LAYER)
    assert stats.bad_metric_names(names) == []
    assert stats.bad_metric_names(["p99.9", "a b", "x/y"]) == ["a b", "x/y"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sweep_pass_covers_the_grid_overlapping_by_half():
    import workloads as wl
    sessions = wl.sweep_pass(3)
    assert sessions == wl.sweep_pass(3)
    by_group = {}
    for group, _key, points in sessions:
        by_group.setdefault(group, []).append([p.label for p in points])
    assert len(by_group) == 8
    for runs in by_group.values():
        for before, after in zip(runs, runs[1:]):
            assert before[wl.SESSION_STRIDE:] == after[:wl.SESSION_STRIDE]
    # Every point of the grid, once per pass.
    labels = {label for runs in by_group.values() for run in runs
              for label in run}
    grid = {p.label for points in wl.sweep_groups(3).values()
            for p in points}
    assert labels == grid


def test_host_speed_scales_the_reference_loop():
    from bench import REFERENCE_S, host_speed
    speed = host_speed(repeats=3)
    # 150,000 multiply-adds take between 1 ms and 1 s on any host.
    assert REFERENCE_S / 1.0 < speed < REFERENCE_S / 0.001
