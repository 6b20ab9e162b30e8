"""Tests of the benchmark's own machinery (not of the repro package).

Run from the repository root:

    PYTHONPATH=src:. python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, workloads
from perfbench.tracing import Target, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]


# -- self time ------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1, "loop"),
        ("b", 1.0, 4.0, 0, "loop"),
        ("d", 2.0, 3.0, 1, "loop"),
        ("c", 5.0, 6.0, 0, "loop"),
        ("a", 20.0, 21.0, -1, "setup"),
    ]
    assert self_times(spans) == {"a": 7.0, "b": 2.0, "d": 1.0, "c": 1.0}
    loop = self_times(spans, lambda ctx: ctx == "loop")
    assert loop["a"] == 6.0
    assert sum(loop.values()) == 10.0  # self times tile the root span


class _Layered:
    def outer(self):
        time.sleep(0.02)
        return self.inner() + self.inner()

    def inner(self):
        time.sleep(0.01)
        return 1


def test_tracer_records_nested_spans_and_restores_functions():
    original_outer = _Layered.__dict__["outer"]
    tracer = Tracer()
    tracer.install([
        Target(_Layered, "outer", "outer"),
        Target(_Layered, "inner", "inner", sample=lambda result, args: result),
    ])
    tracer.context = "loop:p0"
    try:
        assert _Layered().outer() == 2
    finally:
        tracer.uninstall()
    assert _Layered.__dict__["outer"] is original_outer
    spans = tracer.export()
    assert [s[0] for s in spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 0]
    assert all(s[4] == "loop:p0" for s in spans)
    totals = self_times(spans)
    assert totals["outer"] == pytest.approx(0.02, abs=0.015)
    assert totals["inner"] == pytest.approx(0.02, abs=0.015)
    assert totals["outer"] + totals["inner"] == pytest.approx(spans[0][2] - spans[0][1])
    assert tracer.samples["inner"] == [("loop:p0", 1.0), ("loop:p0", 1.0)]


def test_tracer_shadows_and_restores_an_inherited_method():
    class Child(_Layered):
        pass

    tracer = Tracer()
    tracer.install([Target(Child, "inner", "inner")])
    assert "inner" in vars(Child)
    Child().inner()
    tracer.uninstall()
    assert "inner" not in vars(Child)
    assert len(tracer.spans) == 1


# -- percentile rule ------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    with pytest.raises(checks.InsufficientSamples):
        checks.percentile(np.arange(999.0), 99)
    assert checks.percentile(np.arange(1000.0), 99) == pytest.approx(989.01)
    assert checks.percentile(np.arange(20.0), 50) == pytest.approx(9.5)


# -- output check ---------------------------------------------------------------


def test_output_check_rejects_an_over_ceiling_allocation():
    lo, hi = np.full(3, 1.0), np.full(3, 50.0)
    ok = np.array([[10.0, 10.0, 10.0], [40.0, 40.0, 20.0]])
    assert checks.allocation_errors(ok, lo, hi, 100.0, "ep") == []
    over = ok.copy()
    over[1, 2] = 20.5
    errors = checks.allocation_errors(over, lo, hi, 100.0, "ep")
    assert len(errors) == 1 and "ceiling at interval 1" in errors[0]
    assert checks.allocation_errors(ok * 0.05, lo, hi, 100.0, "ep")[0].endswith(
        "below the tier floor at interval 0"
    )
    assert "non-finite" in checks.allocation_errors(ok * np.nan, lo, hi, 100.0, "ep")[0]


def test_output_check_requires_every_interval_and_finite_summaries():
    assert checks.interval_errors(np.arange(1.0, 6.0), 5, "ep") == []
    assert checks.interval_errors(np.arange(1.0, 5.0), 5, "ep") == ["ep: 4 of 5 intervals ran"]
    assert checks.finite_errors({"qos_fraction": float("nan"), "x": 1.0}, "ep") == [
        "ep: qos_fraction is not finite"
    ]


# -- seeds ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_plan_is_a_function_of_the_seed(workload):
    plan = workloads.seed_plan(workload, 11)
    assert plan == workloads.seed_plan(workload, 11)
    other = workloads.seed_plan(workload, 12)
    for kind, seeds in plan.items():
        assert len(set(seeds)) == len(seeds)
        if kind == "train":  # pinned: the trained models are the system under test
            assert seeds == other[kind]
        else:
            assert not set(seeds) & set(other[kind]), kind


class _Stop(Exception):
    pass


class _FakeTrees:
    n_trees_used = 1


class _FakePredictor:
    trees = _FakeTrees()


class _FakeManager:
    name = "fake"


def test_seed_reaches_training_episodes_and_faults(monkeypatch):
    seen = {"train": [], "episode": [], "fault": []}

    def fake_train(app, budget, seed, use_cache, jobs):
        assert (budget, use_cache, jobs) == (workloads.BENCH_BUDGET, False, 1)
        seen["train"].append(seed)
        return _FakePredictor()

    def fake_cluster(graph, users, seed, pattern, fault_profile, fault_seed):
        seen["episode"].append(seed)
        seen["fault"].append(fault_seed)
        return object()

    def fake_run_episode(*args, **kwargs):
        raise _Stop

    monkeypatch.setattr(workloads, "get_trained_predictor", fake_train)
    monkeypatch.setattr(workloads, "make_cluster", fake_cluster)
    monkeypatch.setattr(workloads, "SinanManager", lambda *a: _FakeManager())
    monkeypatch.setattr(workloads, "run_episode", fake_run_episode)
    with pytest.raises(_Stop):
        workloads.run_sinan("sinan-hotel-chaos", 5, 0.0, False)
    assert seen == workloads.seed_plan("sinan-hotel-chaos", 5)


def test_seed_reaches_every_multitenant_episode(monkeypatch):
    seen = []

    class FakePool:
        def close(self):
            pass

    def fake_run_episodes(tasks, **kwargs):
        seen.extend(t.kwargs["seed"] for t in tasks)
        raise _Stop

    monkeypatch.setattr(workloads, "_spin_up_pool", lambda workers, seeds: FakePool())
    monkeypatch.setattr(workloads.parallel, "run_episodes", fake_run_episodes)
    with pytest.raises(_Stop):
        workloads.run_multitenant(9, 0.0, False, workers=2)
    assert seen == workloads.seed_plan(workloads.MULTITENANT, 9)["episode"]


# -- refusals -------------------------------------------------------------------


def _run(cwd: Path, env_extra: dict | None = None) -> subprocess.CompletedProcess:
    env = {"PATH": "/usr/bin:/bin", **(env_extra or {})}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "multitenant-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


def test_refuses_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_refuses_an_ambient_repro_setting():
    proc = _run(ROOT, {"REPRO_JOBS": "2"})
    assert proc.returncode == 2
    assert "REPRO_JOBS" in proc.stderr
    assert proc.stdout == ""


def test_benchmark_json_declares_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    from perfbench import layers

    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(layers.LOOP_SELF_MS) <= per_layer
    assert set(layers.SETUP_SELF_S) <= per_layer
