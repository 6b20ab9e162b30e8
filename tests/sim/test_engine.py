"""Engine tests: queueing physics, telemetry, determinism."""

import numpy as np
import pytest

from repro.sim.engine import EngineConfig, QueueingEngine
from repro.sim.telemetry import LATENCY_PERCENTILES


def quiet_config(**overrides):
    """Engine config without exogenous load variability (pure physics)."""
    defaults = dict(rate_cv=0.0, spike_prob=0.0, capacity_jitter=0.0)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def make_engine(graph, seed=0, **cfg):
    return QueueingEngine(graph, quiet_config(**cfg), seed=seed)


def generous(graph):
    return graph.max_alloc()


class TestIntervalBasics:
    def test_stats_shapes(self, tiny_graph):
        eng = make_engine(tiny_graph)
        stats = eng.run_interval(generous(tiny_graph), np.array([50.0, 5.0]))
        n = tiny_graph.n_tiers
        assert stats.cpu_util.shape == (n,)
        assert stats.latency_ms.shape == (len(LATENCY_PERCENTILES),)
        assert stats.rx_pps.shape == (n,)
        assert stats.time == pytest.approx(1.0)
        assert stats.rps > 0

    def test_latency_percentiles_monotonic(self, tiny_graph):
        eng = make_engine(tiny_graph)
        stats = eng.run_interval(generous(tiny_graph), np.array([80.0, 8.0]))
        assert np.all(np.diff(stats.latency_ms) >= 0)

    def test_rejects_bad_alloc_shape(self, tiny_graph):
        eng = make_engine(tiny_graph)
        with pytest.raises(ValueError, match="shape"):
            eng.run_interval(np.ones(2), np.array([1.0, 1.0]))

    def test_rejects_nonpositive_alloc(self, tiny_graph):
        eng = make_engine(tiny_graph)
        alloc = generous(tiny_graph)
        alloc[0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            eng.run_interval(alloc, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_alloc(self, tiny_graph, bad):
        """Regression: ``NaN <= 0`` is False, so a NaN core count used to
        pass validation and poison every later interval."""
        eng = make_engine(tiny_graph)
        alloc = generous(tiny_graph)
        alloc[0] = bad
        with pytest.raises(ValueError, match="finite"):
            eng.run_interval(alloc, np.array([1.0, 1.0]))

    def test_rejects_bad_rates_shape(self, tiny_graph):
        eng = make_engine(tiny_graph)
        with pytest.raises(ValueError, match="type_rates"):
            eng.run_interval(generous(tiny_graph), np.array([1.0]))

    def test_zero_load_is_quiet(self, tiny_graph):
        eng = make_engine(tiny_graph)
        stats = eng.run_interval(generous(tiny_graph), np.zeros(2))
        assert stats.rps == 0
        assert stats.drops == 0
        assert np.all(stats.queue == 0)

    def test_determinism_by_seed(self, tiny_graph):
        a = make_engine(tiny_graph, seed=7)
        b = make_engine(tiny_graph, seed=7)
        rates = np.array([60.0, 6.0])
        sa = a.run_interval(generous(tiny_graph), rates)
        sb = b.run_interval(generous(tiny_graph), rates)
        np.testing.assert_allclose(sa.latency_ms, sb.latency_ms)
        np.testing.assert_allclose(sa.cpu_util, sb.cpu_util)

    def test_different_seeds_differ(self, tiny_graph):
        a = make_engine(tiny_graph, seed=1)
        b = make_engine(tiny_graph, seed=2)
        rates = np.array([60.0, 6.0])
        sa = a.run_interval(generous(tiny_graph), rates)
        sb = b.run_interval(generous(tiny_graph), rates)
        assert not np.allclose(sa.latency_ms, sb.latency_ms)


class TestQueueingPhysics:
    def test_overload_builds_queue_and_latency(self, tiny_graph):
        eng = make_engine(tiny_graph)
        starved = np.full(tiny_graph.n_tiers, 0.2)
        rates = np.array([400.0, 40.0])
        first = eng.run_interval(starved, rates)
        later = None
        for _ in range(5):
            later = eng.run_interval(starved, rates)
        assert later.queue.sum() > first.queue.sum()
        assert later.p99_ms > 500

    def test_delayed_queueing_effect(self, tiny_graph):
        """Paper Figure 3: after overload, latency stays high for a while
        even after resources are restored, then recovers."""
        eng = make_engine(tiny_graph)
        rates = np.array([300.0, 30.0])
        for _ in range(8):
            eng.run_interval(np.full(tiny_graph.n_tiers, 0.2), rates)
        recovered = [
            eng.run_interval(generous(tiny_graph), rates) for _ in range(30)
        ]
        # Latency right after upscaling is still elevated (queue drain)...
        assert recovered[0].p99_ms > 200
        # ...but eventually recovers to a low level.
        assert recovered[-1].p99_ms < 200
        assert recovered[-1].queue.sum() < recovered[0].queue.sum()

    def test_queue_cap_drops_requests(self, tiny_graph):
        eng = make_engine(tiny_graph, max_queue=50.0)
        starved = np.full(tiny_graph.n_tiers, 0.2)
        total_drops = 0.0
        for _ in range(5):
            stats = eng.run_interval(starved, np.array([500.0, 50.0]))
            total_drops += stats.drops
        assert total_drops > 0
        assert np.all(eng.queue <= 50.0 + 1e-6)

    def test_dropped_latency_capped_at_timeout(self, tiny_graph):
        eng = make_engine(tiny_graph, max_queue=50.0, drop_latency=5.0)
        starved = np.full(tiny_graph.n_tiers, 0.2)
        for _ in range(5):
            stats = eng.run_interval(starved, np.array([500.0, 50.0]))
        assert stats.p99_ms <= 5000.0 + 1e-6

    def test_more_cpu_means_lower_latency_under_load(self, tiny_graph):
        rates = np.array([300.0, 30.0])
        lean = make_engine(tiny_graph, seed=3)
        rich = make_engine(tiny_graph, seed=3)
        lean_alloc = np.full(tiny_graph.n_tiers, 1.2)
        rich_alloc = generous(tiny_graph)
        lean_p99 = np.mean(
            [lean.run_interval(lean_alloc, rates).p99_ms for _ in range(10)]
        )
        rich_p99 = np.mean(
            [rich.run_interval(rich_alloc, rates).p99_ms for _ in range(10)]
        )
        assert rich_p99 < lean_p99

    def test_backpressure_starves_upstream(self, tiny_graph):
        """A starved downstream tier (db) inflates the upstream queue."""
        with_bp = make_engine(tiny_graph, seed=5)
        without_bp = make_engine(tiny_graph, seed=5, backpressure=False)
        alloc = generous(tiny_graph)
        alloc[tiny_graph.index["db"]] = 0.2
        rates = np.array([250.0, 100.0])
        for _ in range(8):
            s_bp = with_bp.run_interval(alloc, rates)
            s_nobp = without_bp.run_interval(alloc, rates)
        front = tiny_graph.index["front"]
        logic = tiny_graph.index["logic"]
        upstream_bp = s_bp.queue[front] + s_bp.queue[logic]
        upstream_nobp = s_nobp.queue[front] + s_nobp.queue[logic]
        assert upstream_bp > upstream_nobp

    def test_utilization_reflects_load(self, tiny_graph):
        eng = make_engine(tiny_graph)
        alloc = generous(tiny_graph)
        low = eng.run_interval(alloc, np.array([10.0, 1.0]))
        eng.reset()
        high = eng.run_interval(alloc, np.array([400.0, 40.0]))
        assert high.cpu_util.sum() > low.cpu_util.sum()

    def test_reset_clears_state(self, tiny_graph):
        eng = make_engine(tiny_graph)
        starved = np.full(tiny_graph.n_tiers, 0.2)
        for _ in range(5):
            eng.run_interval(starved, np.array([400.0, 40.0]))
        assert eng.queue.sum() > 0
        eng.reset(seed=1)
        assert eng.queue.sum() == 0
        assert eng.time == 0.0


class TestBursts:
    def test_burst_modulation_raises_offered_load(self, tiny_graph):
        cfg = EngineConfig(
            rate_cv=0.0, capacity_jitter=0.0,
            spike_prob=1.0, spike_mult_range=(2.0, 2.0),
            spike_duration_range=(10.0, 10.0),
        )
        eng = QueueingEngine(tiny_graph, cfg, seed=0)
        rates = np.array([100.0, 0.0])
        # Mid-burst intervals should carry noticeably more than 100 rps.
        rps = [eng.run_interval(generous(tiny_graph), rates).rps for _ in range(10)]
        assert max(rps) > 130

    def test_no_bursts_when_disabled(self, tiny_graph):
        eng = make_engine(tiny_graph, seed=0)
        rates = np.array([100.0, 0.0])
        rps = [eng.run_interval(generous(tiny_graph), rates).rps for _ in range(20)]
        # Pure Poisson: fluctuation stays within ~5 sigma of the mean.
        assert max(rps) < 100 + 5 * np.sqrt(100)
