"""Decision path vs the reference scoring path: bitwise-equivalence suite.

The shared-history CNN inference, compiled boosted trees, and zero-copy
candidate encoding are only shippable because they change nothing but
wall-clock time.  These tests pin that down at every level against the
oracles in :mod:`tests.oracles`: encoder tensors, predictor outputs, and
full scheduler decision traces — on clean telemetry and under the fault
profiles.
"""

import numpy as np
import pytest

from repro.core.data_collection import (
    BanditExplorer,
    CollectionConfig,
    DataCollector,
)
from repro.core.actions import ActionSpace
from repro.core.features import WindowEncoder, _ffill_time
from repro.core.predictor import HybridPredictor, PredictorConfig
from repro.core.qos import QoSTarget
from repro.core.scheduler import OnlineScheduler
from repro.ml.cnn import CNNConfig
from repro.sim.cluster import ClusterSimulator
from repro.sim.faults import FaultInjector, resolve_profile
from repro.workload.generator import RequestMix, Workload
from repro.workload.patterns import ConstantLoad
from tests.conftest import make_tiny_cluster, make_tiny_graph
from tests.oracles.layers import use_reference_layers
from tests.oracles.predictor import (
    encode_candidates,
    reference_predictor,
    sanitize_window,
)
from tests.oracles.trees import ReferenceBoostedTrees
from tests.sim.test_telemetry import make_stats

QOS = QoSTarget(200.0)
FAST = PredictorConfig(
    epochs=20,
    batch_size=64,
    cnn=CNNConfig(conv_channels=(4,), rh_embed=16, lh_embed=8, rc_embed=8, latent_dim=16),
)


def make_faulty_cluster(users: float, seed: int, profile: str) -> ClusterSimulator:
    graph = make_tiny_graph()
    mix = RequestMix.from_ratios({"Read": 9, "Write": 1})
    workload = Workload(graph, ConstantLoad(users), mix)
    faults = FaultInjector(resolve_profile(profile), graph.n_tiers, seed=seed)
    return ClusterSimulator(graph, workload, seed=seed, faults=faults)


@pytest.fixture(scope="module")
def trained():
    config = CollectionConfig(qos=QOS)
    collector = DataCollector(
        lambda users, seed: make_tiny_cluster(users, seed), config
    )
    result = collector.collect(
        BanditExplorer(config, seed=0), loads=[60, 160, 280], seconds_per_load=80
    )
    predictor = HybridPredictor(make_tiny_graph(), QOS, FAST, seed=0)
    predictor.train(result.dataset)
    return predictor


@pytest.fixture()
def recorded_log(rng):
    cluster = make_tiny_cluster(users=150, seed=9)
    for _ in range(12):
        jitter = rng.uniform(-0.2, 0.2, cluster.n_tiers)
        cluster.step(cluster.clip_alloc(cluster.current_alloc + jitter))
    return cluster.telemetry


def candidate_batch(log, n_tiers, b, rng):
    base = np.asarray(log.latest.cpu_alloc, dtype=float)
    return np.clip(base + rng.uniform(-1.0, 1.0, (b, n_tiers)), 0.2, 8.0)


class TestEncoderEquivalence:
    def test_shared_matches_reference(self, recorded_log, rng):
        graph = make_tiny_graph()
        cands = candidate_batch(recorded_log, graph.n_tiers, 8, rng)
        ref_rh, ref_lh, ref_rc = encode_candidates(
            WindowEncoder(graph, 5), recorded_log, cands
        )
        x_rh, x_lh, x_rc = WindowEncoder(graph, 5).encode_candidates_shared(
            recorded_log, cands
        )
        assert x_rh.shape[0] == 1 and x_lh.shape[0] == 1
        assert np.array_equal(np.broadcast_to(x_rh, ref_rh.shape), ref_rh)
        assert np.array_equal(np.broadcast_to(x_lh, ref_lh.shape), ref_lh)
        assert np.array_equal(x_rc, ref_rc)

    def test_shared_matches_reference_with_nans(self, recorded_log, rng):
        graph = make_tiny_graph()
        # Corrupt telemetry in place: sanitize_window must repair both
        # paths identically.
        recorded_log.latest.cpu_util[:] = np.nan
        recorded_log[len(recorded_log) - 3].latency_ms[1] = np.inf
        cands = candidate_batch(recorded_log, graph.n_tiers, 8, rng)
        ref = encode_candidates(WindowEncoder(graph, 5), recorded_log, cands)
        fast = WindowEncoder(graph, 5).encode_candidates_shared(recorded_log, cands)
        assert np.array_equal(np.broadcast_to(fast[0], ref[0].shape), ref[0])
        assert np.array_equal(np.broadcast_to(fast[1], ref[1].shape), ref[1])
        assert np.isfinite(fast[0]).all() and np.isfinite(fast[1]).all()

    def test_incremental_cache_matches_fresh(self, rng):
        """The shift-by-one cache path equals a cold full rebuild."""
        graph = make_tiny_graph()
        cluster = make_tiny_cluster(users=120, seed=4)
        encoder = WindowEncoder(graph, 5)
        for _ in range(10):
            jitter = rng.uniform(-0.2, 0.2, cluster.n_tiers)
            cluster.step(cluster.clip_alloc(cluster.current_alloc + jitter))
            cached = encoder.encode_history(cluster.telemetry)
            fresh = WindowEncoder(graph, 5).encode_history(cluster.telemetry)
            assert np.array_equal(cached[0], fresh[0])
            assert np.array_equal(cached[1], fresh[1])

    def test_cache_invalidated_on_different_log(self, rng):
        """Switching episodes mid-life never leaks stale windows."""
        graph = make_tiny_graph()
        encoder = WindowEncoder(graph, 5)
        for seed in (1, 2):
            cluster = make_tiny_cluster(users=100, seed=seed)
            cluster.run(8)
            got = encoder.encode_history(cluster.telemetry)
            want = WindowEncoder(graph, 5).encode_history(cluster.telemetry)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_ffill_matches_sanitize_window(self):
        """Tensor-level forward-fill == the window-local stats repair."""
        window = [make_stats(time=float(i)) for i in range(5)]
        window[0].tx_pps[:] = np.nan
        window[2].cpu_util[:] = np.nan
        window[3].cpu_util[0] = np.inf
        window[4].latency_ms[:] = np.nan
        clean = sanitize_window(window)
        ref_rh = np.stack([s.resource_matrix() for s in clean], axis=2)
        ref_lh = np.stack([s.latency_ms for s in clean], axis=0)
        raw_rh = np.stack([s.resource_matrix() for s in window], axis=2)
        raw_lh = np.stack([s.latency_ms for s in window], axis=0)
        assert np.array_equal(_ffill_time(raw_rh, axis=2), ref_rh)
        assert np.array_equal(_ffill_time(raw_lh, axis=0), ref_lh)


class TestPredictorEquivalence:
    @pytest.mark.parametrize("b", [1, 4, 64])
    def test_fast_matches_reference_bitwise(self, trained, recorded_log, rng, b):
        cands = candidate_batch(recorded_log, trained.graph.n_tiers, b, rng)
        lat_fast, prob_fast = trained.predict_candidates(recorded_log, cands)
        lat_ref, prob_ref = reference_predictor(trained).predict_candidates(
            recorded_log, cands
        )
        assert np.array_equal(lat_fast, lat_ref)
        assert np.array_equal(prob_fast, prob_ref)

    def test_fast_matches_reference_on_corrupted_window(self, trained, recorded_log, rng):
        recorded_log.latest.latency_ms[:] = np.nan
        recorded_log[len(recorded_log) - 2].cpu_util[:] = np.inf
        cands = candidate_batch(recorded_log, trained.graph.n_tiers, 16, rng)
        lat_fast, prob_fast = trained.predict_candidates(recorded_log, cands)
        lat_ref, prob_ref = reference_predictor(trained).predict_candidates(
            recorded_log, cands
        )
        assert np.array_equal(lat_fast, lat_ref)
        assert np.array_equal(prob_fast, prob_ref)


class TestSchedulerTraceEquivalence:
    """Full-episode decision traces, production vs reference predictor.

    Decisions feed back into the simulator, so any divergence compounds
    — equality over a whole episode is the strongest end-to-end check.
    """

    def _run_trace(self, trained, fast: bool, cluster_factory) -> list:
        cluster = cluster_factory()
        graph = make_tiny_graph()
        space = ActionSpace(graph.min_alloc(), graph.max_alloc())
        predictor = trained if fast else reference_predictor(trained)
        scheduler = OnlineScheduler(predictor, space, QOS)
        trained.encoder._cache = None
        trace = []
        for _ in range(20):
            cluster.step(cluster.current_alloc)
            alloc = scheduler.decide(cluster.observed)
            if alloc is not None:
                cluster.step(alloc)
                trace.append(np.asarray(alloc, dtype=float).copy())
        trace.append(np.asarray(scheduler.prediction_trace, dtype=object))
        return trace

    def _assert_identical(self, trained, cluster_factory):
        fast = self._run_trace(trained, True, cluster_factory)
        ref = self._run_trace(trained, False, cluster_factory)
        assert len(fast) == len(ref)
        for a, b in zip(fast[:-1], ref[:-1]):
            assert np.array_equal(a, b)
        for rec_a, rec_b in zip(fast[-1], ref[-1]):
            assert rec_a.keys() == rec_b.keys()
            for key in rec_a:
                va, vb = rec_a[key], rec_b[key]
                assert va == vb or (np.isnan(va) and np.isnan(vb))

    def test_trace_identical_clean(self, trained):
        self._assert_identical(
            trained, lambda: make_tiny_cluster(users=180, seed=21)
        )

    @pytest.mark.parametrize("profile", ["telemetry-dropout", "crash-storm"])
    def test_trace_identical_under_faults(self, trained, profile):
        self._assert_identical(
            trained, lambda: make_faulty_cluster(180, 23, profile)
        )


class TestTrainingEquivalenceUnderFaults:
    """Training on sanitized fault-corrupted data is a drop-in for the
    reference paths: the histogram grower reproduces the
    reference tree structure, and the im2col/fused CNN reproduces the
    reference loss trajectory — NaN-repaired windows (forward-filled
    plateaus, zero backfill, duplicated values) are exactly the
    tie-heavy inputs most likely to expose divergence."""

    @pytest.fixture(scope="class")
    def repaired(self):
        rng = np.random.default_rng(7)
        n, f, tiers, t, m = 240, 5, 4, 6, 5
        x_rh = rng.normal(2.0, 1.0, (n, f, tiers, t))
        x_lh = np.abs(rng.normal(100.0, 20.0, (n, t, m)))
        # Telemetry faults: whole dropped intervals, sporadic NaN/inf
        # channels — then the PR 2 repair (forward-fill over time).
        x_rh[np.broadcast_to(rng.random((n, 1, 1, t)) < 0.1, x_rh.shape)] = np.nan
        x_rh[rng.random(x_rh.shape) < 0.02] = np.inf
        x_lh[rng.random(x_lh.shape) < 0.05] = np.nan
        x_rh = _ffill_time(x_rh, axis=3)
        x_lh = _ffill_time(x_lh, axis=1)
        assert np.isfinite(x_rh).all() and np.isfinite(x_lh).all()
        x_rc = np.abs(rng.normal(2.0, 0.5, (n, tiers)))
        signal = x_rh[:, 0].mean(axis=(1, 2)) + 0.5 * x_rc.mean(axis=1)
        y_lat = 100.0 + 10.0 * np.repeat(signal[:, None], m, axis=1)
        y_viol = (
            signal + rng.normal(0.0, 0.3, n) > np.median(signal)
        ).astype(float)
        return (x_rh, x_lh, x_rc), y_lat, y_viol

    def test_tree_structures_match_reference(self, repaired):
        from repro.ml.boosted_trees import BoostedTrees, BoostedTreesConfig

        (x_rh, _, x_rc), _, y_viol = repaired
        X = np.concatenate([x_rh.reshape(len(x_rh), -1), x_rc], axis=1)
        config = BoostedTreesConfig(n_trees=30)

        def fit(fast):
            tree_cls = BoostedTrees if fast else ReferenceBoostedTrees
            return tree_cls(config, seed=0).fit(X, y_viol)

        fast, ref = fit(True), fit(False)
        assert len(fast.trees) == len(ref.trees)

        def walk(a, b):
            assert (a is None) == (b is None)
            if a is None:
                return
            assert a.feature == b.feature
            if a.is_leaf:
                assert a.value == pytest.approx(b.value, abs=1e-10)
            else:
                assert a.threshold == b.threshold
            walk(a.left, b.left)
            walk(a.right, b.right)

        for ta, tb in zip(fast.trees, ref.trees):
            walk(ta, tb)
        assert np.array_equal(fast.predict_margin(X), ref.predict_margin(X))

    def test_cnn_loss_trajectory_matches_reference(self, repaired):
        from repro.ml.cnn import LatencyCNN

        inputs, y_lat, _ = repaired
        small = CNNConfig(
            conv_channels=(4,), rh_embed=16, lh_embed=8, rc_embed=8, latent_dim=16
        )

        def fit(fast):
            model = LatencyCNN(4, 6, 5, 5, config=small, seed=0)
            if not fast:
                use_reference_layers(model)
            return model.fit(inputs, y_lat, epochs=4, batch_size=64, seed=3)

        fast, ref = fit(True), fit(False)
        assert fast.epochs_run == ref.epochs_run
        np.testing.assert_allclose(
            fast.train_loss, ref.train_loss, rtol=0, atol=1e-8
        )
