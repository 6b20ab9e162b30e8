"""Experiment harness tests."""

import numpy as np
import pytest

from benchmarks.bench import BenchConfig, make_synthetic_predictor
from repro.core.manager import StaticManager
from repro.core.qos import QoSTarget
from repro.harness.experiment import run_episode, score_window, sweep_loads
from repro.harness.pipeline import app_spec, make_cluster, make_manager
from repro.harness.reporting import format_series, format_table
from repro.obs import ActiveRecorder, NULL_RECORDER
from tests.conftest import make_tiny_cluster


QOS = QoSTarget(200.0)


class TestRunEpisode:
    def test_metrics_computed(self):
        cluster = make_tiny_cluster(users=50, seed=0)
        manager = StaticManager(np.full(cluster.n_tiers, 2.0))
        result = run_episode(manager, cluster, duration=30, qos=QOS, warmup=5)
        assert result.duration == 30
        assert len(result.telemetry) == 30
        assert result.mean_total_cpu == pytest.approx(8.0)
        assert result.max_total_cpu == pytest.approx(8.0)
        assert 0.0 <= result.qos_fraction <= 1.0
        assert result.users == 50

    def test_warmup_excluded(self):
        cluster = make_tiny_cluster(users=50, seed=0)

        class TwoPhase(StaticManager):
            def __init__(self, n):
                super().__init__(np.full(n, 8.0))
                self.calls = 0

            def decide(self, log):
                self.calls += 1
                if self.calls > 10:
                    return np.full(len(self.alloc), 1.0)
                return self.alloc.copy()

        manager = TwoPhase(cluster.n_tiers)
        result = run_episode(manager, cluster, duration=30, qos=QOS, warmup=10)
        # Only the 1.0-per-tier phase counts.
        assert result.mean_total_cpu == pytest.approx(4.0)

    def test_duration_must_exceed_warmup(self):
        cluster = make_tiny_cluster()
        with pytest.raises(ValueError):
            run_episode(StaticManager(np.ones(4)), cluster, 5, QOS, warmup=10)

    def test_manager_reset_called(self):
        cluster = make_tiny_cluster(users=10, seed=0)

        class Probe(StaticManager):
            reset_called = False

            def reset(self):
                self.reset_called = True

        manager = Probe(np.ones(cluster.n_tiers))
        run_episode(manager, cluster, 12, QOS, warmup=2)
        assert manager.reset_called

    def test_row_format(self):
        cluster = make_tiny_cluster(users=10, seed=0)
        result = run_episode(
            StaticManager(np.ones(cluster.n_tiers)), cluster, 12, QOS, warmup=2
        )
        row = result.row()
        assert row[0] == "static"
        assert len(row) == 5


class TestRecorderScope:
    """A recorder passed to ``run_episode`` lives for that episode only."""

    def test_recorder_detached_after_episode(self):
        spec = app_spec("social_network")
        graph = spec.graph_factory()
        predictor = make_synthetic_predictor(
            BenchConfig(n_trees=40, tree_depth=4, seed=0)
        )
        manager = make_manager("sinan", graph, spec.qos, predictor)
        cluster = make_cluster(graph, 200, seed=3)
        recorder = ActiveRecorder()
        run_episode(manager, cluster, 15, spec.qos, warmup=2, recorder=recorder)
        rows, spans = len(recorder.audit_log), len(recorder.tracer)
        assert rows > 0 and spans > 0
        for component in (manager.scheduler, predictor, cluster, cluster.engine):
            assert component.recorder is NULL_RECORDER

        # A later episode without a recorder leaves the artifacts alone.
        run_episode(manager, cluster, 15, spec.qos, warmup=2)
        assert len(recorder.audit_log) == rows
        assert len(recorder.tracer) == spans

    def test_recorder_detached_when_episode_raises(self):
        cluster = make_tiny_cluster(users=10, seed=0)

        class Failing(StaticManager):
            def decide(self, log):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            run_episode(Failing(np.ones(cluster.n_tiers)), cluster, 12, QOS,
                        warmup=2, recorder=ActiveRecorder())
        assert cluster.recorder is NULL_RECORDER


class TestScoreWindow:
    def test_matches_episode_and_empty_window_is_nan(self):
        cluster = make_tiny_cluster(users=50, seed=0)
        result = run_episode(
            StaticManager(np.full(cluster.n_tiers, 2.0)), cluster, 20, QOS,
            warmup=5,
        )
        assert score_window(result.telemetry, QOS, 5) == (
            result.qos_fraction, result.mean_total_cpu, result.max_total_cpu
        )
        assert all(np.isnan(score_window(result.telemetry, QOS, 20)))


class TestSweepLoads:
    def test_one_result_per_load(self):
        results = sweep_loads(
            manager_factory=lambda: StaticManager(np.full(4, 2.0)),
            cluster_factory=lambda users, seed: make_tiny_cluster(users, seed),
            loads=[20, 50, 80],
            duration=15,
            qos=QOS,
            warmup=3,
        )
        assert [r.users for r in results] == [20, 50, 80]


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(
            ["name", "value"], [["a", 1], ["longer", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text

    def test_format_series(self):
        text = format_series("s", [1, 2], [0.5, 0.75], "x", "y")
        assert "0.500" in text and "0.750" in text
