"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from client import percentile  # noqa: E402
from workloads import WORKLOADS, op_rng, set_up, verify_seed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def short_runs():
    """One cycle of each workload untraced, and of harmonic-6 traced."""
    runs = {(w, 0): run_bench(ROOT, w, 5, 0) for w in WORKLOADS}
    runs[("harmonic-6", 1)] = run_bench(ROOT, "harmonic-6", 5, 1)
    return runs


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    make = WORKLOADS[name].make_problem
    null = tracing.NullTracer()
    for kind, index in (("solve", 0), ("solve", 7), ("report", 3)):
        first = make(op_rng(11, kind, index), null)
        again = make(op_rng(11, kind, index), null)
        other = make(op_rng(12, kind, index), null)
        for field in ("a", "b", "theta"):
            assert np.array_equal(getattr(first, field), getattr(again, field))
            assert not np.array_equal(getattr(first, field), getattr(other, field))
    assert verify_seed(11, 2) == verify_seed(11, 2) != verify_seed(12, 2)


@pytest.mark.parametrize("name", ["harmonic-6", "plan-catalogue"])
def test_report_files_follow_the_seed(tmp_path, name):
    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        set_up(WORKLOADS[name], seed, d, tracing.NullTracer())
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    first, again, other = files(3, "a"), files(3, "b"), files(4, "c")
    assert first == again
    assert first.keys() == other.keys() and first != other


def test_benchmark_json_names_workloads_and_metrics():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.per_layer_names()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_run_prints_every_metric_and_fails_nothing(short_runs, name):
    result = _result(short_runs[(name, 0)])
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(short_runs):
    result = _result(short_runs[("harmonic-6", 1)])
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["series_toolkit.mmm_mismatch"] == 0
    calls = {k: v for k, v in metrics.items() if k.endswith("_calls")}
    assert all(v >= 1 for v in calls.values()), calls


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "harmonic-6", 1, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_percentile_is_nearest_rank():
    xs = [float(x) for x in range(1, 101)]
    assert percentile(xs, 50) == 50.0
    assert percentile(xs, 99) == 99.0
    assert percentile(xs, 100) == 100.0
    assert percentile([3.0], 70) == 3.0


def test_gauge_scales_by_the_readings_around_an_op():
    gauge = speed.Gauge("python")
    gauge.at, gauge.seconds = [0.0, 1.0, 1.2, 1.4, 5.0], [1.0, 2.0, 4.0, 2.0, 8.0]
    nominal = gauge.nominal_s
    # Readings within WINDOW_S of the midpoint 1.2: the three at 1.0-1.4.
    assert gauge.scale(1.1, 1.3) == nominal / 2.0
    # None that close to 3.0: the readings just before and just after.
    assert gauge.scale(2.0, 4.0) == nominal / ((2.0 + 8.0) / 2)
    assert gauge.recent_scale(2) == nominal / 5.0


def test_every_op_kind_names_a_gauge():
    for w in WORKLOADS.values():
        assert set(w.gauges) == set(w.cycle)
        assert set(w.gauges.values()) <= set(speed.REFERENCES)
