"""Bitwise equivalence of the batched-tick interval path.

The engine's batched-tick interval must be indistinguishable from the
per-tick reference loop (:class:`tests.oracles.engine.ReferenceQueueingEngine`):
every :class:`IntervalStats` field, the engine's internal state vectors,
and the RNG stream itself are compared bitwise across normal, bursty,
overload, and chaos-fault episodes — serial and under the process-pool
harness — with the compiled kernel and with the pure-numpy recurrence
(reached by making :func:`repro.sim._ckernel.load_kernel` return
``None``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.boosted_trees import BoostedTrees, BoostedTreesConfig
from repro.sim import _ckernel
from repro.sim.cluster import ClusterSimulator
from repro.sim.engine import EngineConfig, QueueingEngine
from repro.sim.faults import FaultInjector
from repro.workload.generator import RequestMix, Workload
from repro.workload.patterns import ConstantLoad
from tests.conftest import make_tiny_graph
from tests.oracles.engine import ReferenceQueueingEngine, use_reference_engine

_STAT_FIELDS = (
    "time", "rps", "cpu_alloc", "cpu_util", "rss_mb", "cache_mb",
    "rx_pps", "tx_pps", "queue", "latency_ms", "drops",
    "latency_samples_ms",
)
_STATE_ATTRS = ("queue", "_busy_ewma", "_busy_frac", "_demand", "_sojourn")


def assert_stats_equal(a, b, context=""):
    for name in _STAT_FIELDS:
        va, vb = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        assert np.array_equal(va, vb), f"{context} field {name}: {va} != {vb}"
    assert a.rps_by_type == b.rps_by_type, context


def assert_engines_equal(fast, ref, context=""):
    for attr in _STATE_ATTRS:
        assert np.array_equal(getattr(fast, attr), getattr(ref, attr)), (
            f"{context} state {attr}"
        )
    assert fast.time == ref.time, context
    assert (
        fast._rng.bit_generator.state == ref._rng.bit_generator.state
    ), f"{context} RNG state diverged"


def _engine_pair(overrides, seed=7):
    graph = make_tiny_graph()
    cfg = EngineConfig(**overrides)
    fast = QueueingEngine(graph, cfg, seed=seed)
    ref = ReferenceQueueingEngine(graph, cfg, seed=seed)
    return graph, fast, ref


def _drive(graph, fast, ref, intervals=25, rps=140.0, use_reference_api=False):
    n = graph.n_tiers
    base = np.full(n, 2.0)
    rates = np.full(graph.n_types, rps / graph.n_types)
    phase = np.arange(n)
    total_drops = 0.0
    for i in range(intervals):
        allocs = base * (1.0 + 0.1 * np.sin(i + phase))
        tr = rates * (1.0 + 0.2 * np.sin(i / 3.0))
        sf = fast.run_interval(allocs, tr)
        sr = (
            ref.run_interval_reference(allocs, tr)
            if use_reference_api
            else ref.run_interval(allocs, tr)
        )
        assert_stats_equal(sf, sr, f"interval {i}")
        total_drops += sr.drops
    assert_engines_equal(fast, ref)
    return total_drops


SCENARIOS = {
    "normal": {},
    "bursty": {"spike_prob": 0.5, "spike_mult_range": (2.0, 3.0)},
    "no-jitter": {"capacity_jitter": 0.0},
    "no-backpressure": {"backpressure": False},
    "fine-tick": {"tick": 0.05},
}


class TestEngineEquivalence:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_bitwise_identical_episode(self, scenario):
        graph, fast, ref = _engine_pair(SCENARIOS[scenario])
        _drive(graph, fast, ref)

    def test_overload_with_drops(self):
        # The drop branch flips extra RNG draws (per-type coin flips), so
        # a drops-free run would silently skip it; assert it triggered.
        graph, fast, ref = _engine_pair({"max_queue": 40.0})
        drops = _drive(graph, fast, ref, rps=900.0)
        assert drops > 0

    def test_reference_api_is_the_oracle(self):
        # The oracle's run_interval_reference is the per-tick loop its
        # run_interval seam dispatches to; the engine must agree with it.
        graph, fast, ref = _engine_pair({})
        assert ref.run_interval == ref.run_interval_reference
        _drive(graph, fast, ref, intervals=10, use_reference_api=True)

    def test_pure_numpy_fallback(self, monkeypatch):
        monkeypatch.setattr(_ckernel, "load_kernel", lambda: None)
        graph, fast, ref = _engine_pair({"max_queue": 60.0})
        _drive(graph, fast, ref, rps=500.0)
        assert fast._fast_plan is not None
        assert fast._fast_plan.clib is None

    def test_kernel_used_when_available(self, monkeypatch):
        # load_kernel() swallows build errors, so with cffi and a
        # compiler present a broken kernel must fail here rather than
        # silently send the simulator and the trees to numpy.
        pytest.importorskip("cffi")
        import shutil

        if not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")):
            pytest.skip("no C compiler")
        graph, fast, ref = _engine_pair({})
        _drive(graph, fast, ref, intervals=5)
        assert fast._fast_plan.clib is not None

        ffi, lib = _ckernel.load_kernel()
        assert callable(lib.sinan_tree_margin)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        trees = BoostedTrees(BoostedTreesConfig(n_trees=5), seed=0).fit(
            X, (X[:, 0] > 0).astype(float)
        )
        calls = []

        class SpyLib:
            def __getattr__(self, name):
                return getattr(lib, name)

            def sinan_tree_margin(self, *args):
                calls.append(args[0])
                return lib.sinan_tree_margin(*args)

        monkeypatch.setattr(_ckernel, "load_kernel", lambda: (ffi, SpyLib()))
        trees.predict_margin(X[:7])
        assert calls == [7]


class TestReset:
    def test_engine_reset_reproduces_fresh_engine(self):
        graph = make_tiny_graph()
        cfg = EngineConfig()
        allocs = np.full(graph.n_tiers, 2.0)
        rates = np.full(graph.n_types, 70.0)
        engine = QueueingEngine(graph, cfg, seed=1)
        for _ in range(10):
            engine.run_interval(allocs, rates)
        engine.reset(seed=5)
        fresh = QueueingEngine(graph, cfg, seed=5)
        for i in range(10):
            assert_stats_equal(
                engine.run_interval(allocs, rates),
                fresh.run_interval(allocs, rates),
                f"post-reset interval {i}",
            )
        assert_engines_equal(engine, fresh)

    def _make_cluster(self, seed, faults):
        graph = make_tiny_graph()
        mix = RequestMix.from_ratios({"Read": 9, "Write": 1})
        workload = Workload(graph, ConstantLoad(120), mix)
        injector = (
            FaultInjector("chaos", graph.n_tiers, seed=3) if faults else None
        )
        return ClusterSimulator(graph, workload, seed=seed, faults=injector)

    @pytest.mark.parametrize("faults", [False, True])
    def test_cluster_reset_mid_episode(self, faults):
        cluster = self._make_cluster(seed=1, faults=faults)
        for _ in range(8):
            cluster.step()
        cluster.reset(seed=5)
        fresh = self._make_cluster(seed=5, faults=faults)
        for i in range(8):
            assert_stats_equal(
                cluster.step(), fresh.step(), f"post-reset interval {i}"
            )
        assert_engines_equal(cluster.engine, fresh.engine)


class TestClusterEquivalence:
    def _cluster(self, faults=False):
        graph = make_tiny_graph()
        mix = RequestMix.from_ratios({"Read": 9, "Write": 1})
        workload = Workload(graph, ConstantLoad(150), mix)
        injector = (
            FaultInjector("chaos", graph.n_tiers, seed=11) if faults else None
        )
        return ClusterSimulator(graph, workload, seed=4, faults=injector)

    @pytest.mark.parametrize("faults", [False, True])
    def test_cluster_fast_vs_reference(self, faults):
        fast = self._cluster(faults)
        ref = use_reference_engine(self._cluster(faults))
        assert type(fast.engine) is QueueingEngine
        assert type(ref.engine) is ReferenceQueueingEngine
        for i in range(20):
            assert_stats_equal(fast.step(), ref.step(), f"interval {i}")
        assert_engines_equal(fast.engine, ref.engine)
        if faults:
            # The chaos profile installs physics behaviors; make sure the
            # behavior-multiplier path of the fast loop actually ran.
            assert fast.engine.behaviors


def _episode_digest(seed: int, reference: bool) -> np.ndarray:
    """Picklable episode for the process-pool determinism check."""
    graph = make_tiny_graph()
    engine_cls = ReferenceQueueingEngine if reference else QueueingEngine
    engine = engine_cls(graph, EngineConfig(max_queue=200.0), seed=seed)
    allocs = np.full(graph.n_tiers, 1.5)
    rates = np.full(graph.n_types, 120.0)
    samples = [
        engine.run_interval(allocs, rates).latency_samples_ms
        for _ in range(12)
    ]
    return np.concatenate(samples)


class TestParallelHarness:
    def test_serial_vs_jobs(self):
        from repro.harness.parallel import EpisodeTask, run_episodes

        def tasks(reference):
            return [
                EpisodeTask(
                    index=i,
                    label=f"ep{i}",
                    fn=_episode_digest,
                    kwargs={"seed": 100 + i, "reference": reference},
                )
                for i in range(4)
            ]

        serial = run_episodes(tasks(False), jobs=1)
        pooled = run_episodes(tasks(False), jobs=2)
        reference = run_episodes(tasks(True), jobs=1)
        assert not serial.failures and not pooled.failures
        assert not reference.failures
        for a, b, c in zip(serial.results, pooled.results, reference.results):
            assert np.array_equal(a, b)  # fork-safe and deterministic
            assert np.array_equal(a, c)  # and identical to the reference


class TestTelemetryWindow:
    def test_window_left_padding_under_fast_sim(self):
        """Early intervals (< window length) left-pad with the oldest
        stats; the encoder's incremental cache must agree bitwise with a
        fresh encode at every step of a batched-tick cluster."""
        from repro.core.features import WindowEncoder

        graph = make_tiny_graph()
        mix = RequestMix.from_ratios({"Read": 9, "Write": 1})
        workload = Workload(graph, ConstantLoad(120), mix)
        cluster = ClusterSimulator(graph, workload, seed=2)
        window = 5
        encoder = WindowEncoder(graph, window)
        rng = np.random.default_rng(0)
        for step in range(window + 4):
            cluster.step(cluster.clip_alloc(
                cluster.current_alloc
                + rng.uniform(-0.2, 0.2, cluster.n_tiers)
            ))
            recent = cluster.telemetry.window(window)
            assert len(recent) == window  # left-padded before `window` steps
            if step < window - 1:
                assert recent[0] is recent[1]  # padding repeats the oldest
            cached = encoder.encode_history(cluster.telemetry)
            fresh = WindowEncoder(graph, window).encode_history(
                cluster.telemetry
            )
            assert np.array_equal(cached[0], fresh[0])
            assert np.array_equal(cached[1], fresh[1])


class TestEngineDifferential:
    """Random allocations, loads, physics knobs and seeds: the batched
    engine must match the per-tick oracle bitwise on every interval."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(min_value=0.1, max_value=8.0), min_size=4, max_size=4),
            min_size=1, max_size=4,
        ),
        st.floats(min_value=0.0, max_value=900.0),
        st.fixed_dictionaries({
            "capacity_jitter": st.sampled_from([0.0, 0.05, 0.3]),
            "spike_prob": st.sampled_from([0.0, 0.03, 0.8]),
            "backpressure": st.booleans(),
            "max_queue": st.sampled_from([20.0, 4000.0]),
            "tick": st.sampled_from([0.1, 0.25]),
        }),
        st.integers(0, 2**31 - 1),
    )
    def test_random_episodes_match_oracle(self, allocs, rps, overrides, seed):
        graph, fast, ref = _engine_pair(overrides, seed=seed)
        rates = np.array([0.9, 0.1]) * rps
        for i, alloc in enumerate(allocs):
            alloc = np.asarray(alloc)
            assert_stats_equal(
                fast.run_interval(alloc, rates),
                ref.run_interval(alloc, rates),
                f"interval {i}",
            )
        assert_engines_equal(fast, ref)
