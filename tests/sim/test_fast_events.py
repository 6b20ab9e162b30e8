"""Struct-of-arrays event loop vs the object-loop oracle: bitwise
equality (one of the equality-test files named by
``repro.sim.event_engine``'s module docstring).

The fast loop replaces ``_Request``/``_Visit`` objects and the tuple
heap with preallocated arrays, incremental busy-time accounting, and
pre-drawn arrival streams — all of it only shippable because nothing
observable changes: every summary field, the engines' final RNG
bit-generator state, and the per-tier busy/completed-work counters must
match ``run_reference`` exactly, across the validation scenarios
(allocation sweep on the tiny app), overload/drop regimes, multi-run
windowing, non-default physics knobs, and the production-sized graph.
"""

import numpy as np
import pytest

from repro.harness.pipeline import app_spec
from repro.sim.event_engine import EventDrivenEngine, EventEngineConfig
from tests.conftest import make_tiny_graph
from tests.oracles.events import ReferenceEventEngine

GRAPH = make_tiny_graph()
#: The validation-bench load (165 rps total on the tiny app).
RATES = np.array([150.0, 15.0])


def paired_engines(graph=GRAPH, seed=0, **cfg):
    """A (fast, reference) engine pair built identically."""
    return (
        EventDrivenEngine(graph, EventEngineConfig(**cfg), seed=seed),
        ReferenceEventEngine(graph, EventEngineConfig(**cfg), seed=seed),
    )


def assert_summary_equal(fast: dict, ref: dict) -> None:
    assert set(fast) == set(ref)
    for key in fast:
        assert np.array_equal(
            np.asarray(fast[key]), np.asarray(ref[key]), equal_nan=True
        ), key


def assert_state_equal(fast_e, ref_e) -> None:
    """Engine-level state: time, drops, tier counters, RNG stream."""
    assert fast_e.time == ref_e.time
    assert fast_e.dropped == ref_e.dropped
    for tf, tr in zip(fast_e.tiers, ref_e.tiers):
        assert tf.busy == tr.busy
        assert tf.completed_work == tr.completed_work
    assert (
        fast_e._rng.bit_generator.state == ref_e._rng.bit_generator.state
    )


class TestRunEquality:
    @pytest.mark.parametrize("level", [0.4, 1.0, 2.0, 4.0, 8.0])
    def test_validation_alloc_sweep(self, level):
        """The ``test_validation_event_engine`` scenarios: the same
        allocation sweep, seed, and horizon the cross-validation bench
        runs — from overloaded-with-drops to heavily overprovisioned."""
        fast_e, ref_e = paired_engines(seed=9)
        alloc = np.full(GRAPH.n_tiers, level)
        assert_summary_equal(
            fast_e.run(alloc, RATES, 30.0),
            ref_e.run_reference(alloc, RATES, 30.0),
        )
        assert_state_equal(fast_e, ref_e)

    def test_zero_load(self):
        fast_e, ref_e = paired_engines(seed=2)
        alloc = np.full(GRAPH.n_tiers, 2.0)
        zero = np.zeros(GRAPH.n_types)
        assert_summary_equal(
            fast_e.run(alloc, zero, 5.0),
            ref_e.run_reference(alloc, zero, 5.0),
        )
        assert_state_equal(fast_e, ref_e)

    def test_drop_heavy_small_queue(self):
        fast_e, ref_e = paired_engines(seed=5, max_queue=50)
        alloc = np.full(GRAPH.n_tiers, 0.4)
        fast = fast_e.run(alloc, RATES, 10.0)
        ref = ref_e.run_reference(alloc, RATES, 10.0)
        assert fast["dropped"] > 0  # the drop path actually ran
        assert_summary_equal(fast, ref)
        assert_state_equal(fast_e, ref_e)

    def test_non_default_physics_knobs(self):
        fast_e, ref_e = paired_engines(
            seed=7,
            service_mult=1.3,
            base_lat_mult=0.7,
            noise_sigma=0.4,
            drop_latency=2.5,
            max_queue=200,
        )
        alloc = np.full(GRAPH.n_tiers, 1.0)
        assert_summary_equal(
            fast_e.run(alloc, RATES, 10.0),
            ref_e.run_reference(alloc, RATES, 10.0),
        )
        assert_state_equal(fast_e, ref_e)

    def test_multi_run_windowing_with_alloc_changes(self):
        """Carried-over in-flight work, per-run summary windowing, and
        allocation changes between runs stay equivalent run by run."""
        fast_e, ref_e = paired_engines(seed=3, max_queue=200)
        for level, duration in ((0.6, 8.0), (2.0, 6.0), (0.8, 8.0)):
            alloc = np.full(GRAPH.n_tiers, level)
            assert_summary_equal(
                fast_e.run(alloc, RATES, duration),
                ref_e.run_reference(alloc, RATES, duration),
            )
            assert_state_equal(fast_e, ref_e)

    def test_pre_seeded_busy_tail(self):
        """The accounting hack the engine tests rely on — poking
        ``tiers[0].busy`` before the first run — must behave identically
        on the adopted struct-of-arrays mirrors."""
        fast_e, ref_e = paired_engines(seed=1)
        for engine in (fast_e, ref_e):
            engine.tiers[0].busy = 1
        alloc = np.full(GRAPH.n_tiers, 2.0)
        assert_summary_equal(
            fast_e.run(alloc, RATES, 5.0),
            ref_e.run_reference(alloc, RATES, 5.0),
        )
        assert_state_equal(fast_e, ref_e)

    @pytest.mark.parametrize("level,rps", [(1.0, 120.0), (0.5, 200.0)])
    def test_production_graph(self, level, rps):
        graph = app_spec("social_network").graph_factory()
        fast_e, ref_e = paired_engines(graph=graph, seed=13)
        alloc = np.full(graph.n_tiers, level)
        rates = np.full(graph.n_types, rps / graph.n_types)
        assert_summary_equal(
            fast_e.run(alloc, rates, 10.0),
            ref_e.run_reference(alloc, rates, 10.0),
        )
        assert_state_equal(fast_e, ref_e)


class TestP99SeriesRegression:
    """Satellite: the vectorized (searchsorted) per-second p99 series
    must equal the original O(seconds x completions) mask scan,
    including NaN for idle seconds."""

    def _oracle_series(self, engine, duration: float) -> np.ndarray:
        lat = engine.latencies
        times = np.array([t for t, _ in lat])
        values = np.array([v for _, v in lat]) * 1000.0
        start = engine.time - duration
        series = []
        for second in range(int(duration)):
            mask = (times >= start + second) & (times < start + second + 1)
            series.append(
                float(np.percentile(values[mask], 99))
                if mask.any()
                else float("nan")
            )
        return np.array(series)

    @pytest.mark.parametrize("method", ["run", "run_reference"])
    def test_series_matches_mask_scan_with_idle_seconds(self, method):
        engine_cls = (
            EventDrivenEngine if method == "run" else ReferenceEventEngine
        )
        engine = engine_cls(GRAPH, EventEngineConfig(), seed=12)
        alloc = np.full(GRAPH.n_tiers, 2.0)
        sparse = np.array([2.0, 0.5])  # ~2.5 rps: plenty of idle seconds
        summary = getattr(engine, method)(alloc, sparse, 20.0)
        oracle = self._oracle_series(engine, 20.0)
        assert np.isnan(oracle).any()  # idle seconds actually occurred
        assert np.array_equal(
            summary["p99_series_ms"], oracle, equal_nan=True
        )

    def test_series_windowed_on_second_run(self):
        """Only this run's completions feed the series (lat_start
        windowing) — the vectorized bucketing must respect it."""
        engine = EventDrivenEngine(GRAPH, EventEngineConfig(), seed=14)
        alloc = np.full(GRAPH.n_tiers, 2.0)
        engine.run(alloc, RATES, 5.0)
        n_before = len(engine.latencies)
        summary = engine.run(alloc, np.array([2.0, 0.5]), 10.0)
        lat = engine.latencies[n_before:]
        times = np.array([t for t, _ in lat])
        values = np.array([v for _, v in lat]) * 1000.0
        start = engine.time - 10.0
        oracle = []
        for second in range(10):
            mask = (times >= start + second) & (times < start + second + 1)
            oracle.append(
                float(np.percentile(values[mask], 99))
                if mask.any()
                else float("nan")
            )
        assert np.array_equal(
            summary["p99_series_ms"], np.array(oracle), equal_nan=True
        )
