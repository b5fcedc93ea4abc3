"""Tests of the benchmark itself.

Run from the root of the repository with ``python3 -m pytest perfbench/tests``.
Each repetition starts a fresh interpreter and takes a few seconds; the module
runs about twenty of them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

WORKLOADS = tuple(run.WORKLOADS) + tuple(run.EXTRA_WORKLOADS)


@pytest.fixture(scope="module")
def rep(tmp_path_factory):
    """One repetition per (workload, seed, trace, copy), run once per module."""
    done: dict[tuple, dict] = {}

    def get(workload: str, seed: int, trace: bool, copy: int = 0) -> dict:
        key = (workload, seed, trace, copy)
        if key not in done:
            spans = tmp_path_factory.mktemp("spans")
            done[key] = run.run_rep(workload, run.make_inputs(workload, seed), trace, spans, timeout=120)
        return done[key]

    return get


def test_inputs_depend_only_on_the_seed():
    for workload in WORKLOADS:
        assert run.make_inputs(workload, 7) == run.make_inputs(workload, 7)
        assert run.make_inputs(workload, 7) != run.make_inputs(workload, 8)
    for seed in range(50):
        lo, hi = run.make_inputs("connection", seed)["beta1_range"]
        assert 0.994 <= lo <= 1.5 and 9.0 <= hi <= 10.0


def test_spec_matches_benchmark_json():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.spec()


def test_same_seed_repeats_exactly(rep):
    first, second = rep("connection", 1, False), rep("connection", 1, False, copy=1)
    assert first["digest"] == second["digest"]
    assert first["counters"] == second["counters"]
    assert first["counters"]["flow.solver.rhs_evals"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_every_check(rep, workload):
    result = rep(workload, 2, False)
    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert not result["missing_counts"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_results_bit_identical(rep, workload):
    plain, traced = rep(workload, 2, False), rep(workload, 2, True)
    assert traced["problems"] == []
    assert traced["digest"] == plain["digest"]
    for name in ("flow.solver.calls", "flow.solver.steps", "flow.solver.rhs_evals"):
        assert traced["counters"][name] == plain["counters"][name]
    assert traced["counters"]["flow.rhs.evals"] == traced["counters"]["flow.solver.rhs_evals"]
    if workload == "sweep":
        # every distance evaluation happens in a forked pool worker
        n = run.make_inputs("sweep", 2)["n"]
        assert traced["counters"]["connection.distance_to_connection.calls"] == n


def test_probe_restores_every_original():
    sys.path.insert(0, str(ROOT / "src"))
    from probe import MODULES, Probe

    before = [dict(vars(m)) for m in MODULES]
    probe = Probe(trace=True)
    probe.install()
    try:
        import preyswitch.connection

        assert preyswitch.connection.mu_point is not before[MODULES.index(preyswitch.connection)]["mu_point"]
    finally:
        probe.uninstall()
    assert [dict(vars(m)) for m in MODULES] == before


def test_event_wrappers_keep_terminal_and_direction():
    sys.path.insert(0, str(ROOT / "src"))
    from probe import _timed

    def g(t, y):
        return y[0]

    g.terminal, g.direction = True, -1.0
    tally = [0, 0.0]
    wrapped = _timed(g, tally)
    assert (wrapped.terminal, wrapped.direction) == (True, -1.0)
    assert wrapped(0.0, [3.0]) == 3.0 and tally[0] == 1


@pytest.mark.parametrize("trace", (0, 1))
def test_run_prints_the_result_last(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "connection", "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    metrics = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == {name for name, *_ in metrics}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "connection", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
