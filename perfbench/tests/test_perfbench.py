"""Tests of the benchmark's own code (``python -m pytest perfbench/tests``)."""

from __future__ import annotations

import shutil
import subprocess
import sys
from dataclasses import replace

from pathlib import Path

import pytest
from harness import (
    FAILED,
    METRIC_NAME,
    PASSED,
    load_spec,
    nearest_rank,
    run_cycles,
    summarize,
    tail_percentile,
)
from run import WORKLOADS, make_workload

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = load_spec(str(ROOT))


def _names(kind: str) -> list[str]:
    return [m["name"] for m in SPEC[kind]]


def test_metric_and_workload_names_are_plain():
    names = _names("end_to_end") + _names("per_layer")
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
        assert len(name) <= 64
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize(
    ("n_samples", "expected"),
    [
        (1000, 99.0),  # rank 990: exactly 10 beyond
        (999, 95.0),  # p99 has 9 beyond, p95 has 49
        (200, 95.0),  # rank 190: exactly 10 beyond
        (199, 90.0),
        (40, 75.0),  # rank 30: exactly 10 beyond
        (39, 50.0),  # nothing qualifies: the median
        (0, 50.0),
    ],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(n_samples, expected):
    assert tail_percentile(n_samples) == expected


def test_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert nearest_rank(values, 50) == 50.0
    assert nearest_rank(values, 99) == 99.0
    assert nearest_rank(list(reversed(values)), 100) == 100.0
    assert nearest_rank([3.0], 99) == 3.0


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Every workload at its tiny shape: two plain and two traced cycles."""
    runs = {}
    for name in sorted(WORKLOADS):
        work_dir = tmp_path_factory.mktemp(name)
        workload = make_workload(name, seed=7, work_dir=str(work_dir), size="tiny")
        runs[name] = run_cycles(workload, seconds=0, trace=True)
    return runs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_and_passes_its_checks(tiny_runs, name):
    cycles = tiny_runs[name]
    assert len(cycles) == 4
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, gates = summarize(cycles, SPEC, trace=trace)
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] == 4 * cycles[0].result.units > 0
        assert sorted(result["metrics"]) == sorted(_names(kind))
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], float)
        for outcome in gates.values():
            assert outcome == PASSED or outcome.startswith("skipped:"), gates
    end_to_end, _ = summarize(cycles, SPEC, trace=False)
    assert all(m["value"] > 0 for m in end_to_end["metrics"].values())


def test_every_per_layer_metric_comes_from_some_workload(tiny_runs):
    produced = {"bench.work_per_s_plain", "bench.work_per_s_traced",
                "bench.trace_overhead_pct"}
    for cycles in tiny_runs.values():
        for cycle in cycles:
            if cycle.clock.traced:
                produced |= set(cycle.clock.totals()) | set(cycle.result.layers)
    assert set(_names("per_layer")) <= produced


def test_a_failed_gate_fails_the_run(tiny_runs):
    cycles = list(tiny_runs["flat-sim"])
    cycles[0] = replace(
        cycles[0], gates={"association_success_within_band": FAILED}
    )
    result, gates = summarize(cycles, SPEC, trace=False)
    assert result["correct"] is False
    assert result["failed"] == cycles[0].result.units
    assert gates["association_success_within_band"] == FAILED


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat-sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
