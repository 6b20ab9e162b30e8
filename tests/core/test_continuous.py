"""Continuous-learning pipeline tests: registry, worker, shadow,
promotion gate, state machine, and the bitwise shadow-equivalence suite.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.drift import DriftConfig
from repro.core.retrain import (
    ContinuousSinanManager,
    GateDecision,
    ModelRegistry,
    PromotionGate,
    RetrainConfig,
    RetrainWorker,
    ShadowEvaluator,
    ShadowReport,
)
from repro.core.scheduler import SchedulerConfig
from repro.core.sinan import SinanManager
from repro.obs.audit import (
    EVENT_DRIFT,
    EVENT_PROMOTED,
    EVENT_REJECTED,
    EVENT_RETRAIN_STARTED,
    EVENT_SHADOW_STARTED,
    DivergenceRecord,
    ModelEventRecord,
)
from repro.sim.cluster import ClusterSimulator
from repro.sim.faults import FaultInjector, resolve_profile
from repro.workload.generator import RequestMix, Workload
from repro.workload.patterns import ConstantLoad
from tests.conftest import make_tiny_graph
from tests.core.test_predictor import FAST, QOS, tiny_dataset, trained  # noqa: F401
from tests.core.test_scheduler import StubPredictor, make_log, make_scheduler


class TunableStub(StubPredictor):
    """Stub whose ``fine_tune`` flips it into a 'repaired' model."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.tuned = False
        self._thresholds = (0.02, 0.08)

    @property
    def thresholds(self):
        return self._thresholds

    def fine_tune(self, dataset, lr_scale=0.01, epochs=None, seed=None, **kw):
        self.tuned = True
        self._thresholds = (0.05, 0.3)


def make_manager(stub=None, *, collect=0, promote=True, **overrides):
    """Continuous manager on the tiny graph with fast-loop defaults."""
    kwargs = dict(
        drift_config=DriftConfig(
            window=10, min_decisions=5, misprediction_rate=0.2, cooldown=100
        ),
        retrain_config=RetrainConfig(delivery_intervals=5, shadow_intervals=8),
        gate=PromotionGate(min_intervals=5),
    )
    kwargs.update(overrides)
    if collect == 0:
        collect = lambda seed: None  # noqa: E731 - stub dataset
    return ContinuousSinanManager(
        stub or TunableStub(),
        QOS,
        collect=collect,
        graph=make_tiny_graph(),
        promote=promote,
        **kwargs,
    )


def drive(manager, n, p99=100.0, alternate=False):
    """Feed ``n`` decisions; ``alternate`` interleaves violations."""
    for i in range(n):
        level = 400.0 if (alternate and i % 2) else p99
        manager.decide(make_log(p99=level))


class TestModelRegistry:
    def test_memory_register_get_promote(self):
        registry = ModelRegistry()
        a, b = object.__new__(StubPredictor), object.__new__(StubPredictor)
        entry_a = registry.register(a, source="initial")
        entry_b = registry.register(b, source="fine-tune@10", parent=entry_a.version)
        assert (entry_a.version, entry_b.version) == (1, 2)
        assert registry.get(1) is a and registry.get(2) is b
        assert registry.active is None
        registry.promote(2, metrics={"mae": 12.5})
        assert registry.active == 2
        assert registry.entry(2).promoted
        assert registry.entry(2).metrics["mae"] == 12.5
        assert not registry.entry(1).promoted

    def test_unknown_version_raises(self):
        registry = ModelRegistry()
        with pytest.raises(KeyError, match="version"):
            registry.entry(7)

    def test_disk_manifest_roundtrip(self, tmp_path):
        class FakeModel:
            saved_to = None

            def save(self, path):
                FakeModel.saved_to = path
                path.write_bytes(b"envelope")

        registry = ModelRegistry(tmp_path / "models")
        entry = registry.register(FakeModel(), source="initial")
        registry.promote(entry.version)
        assert (tmp_path / "models" / entry.file).read_bytes() == b"envelope"

        resumed = ModelRegistry(tmp_path / "models")
        assert resumed.active == entry.version
        assert len(resumed) == 1
        assert resumed.entry(1).source == "initial"
        assert resumed.entry(1).promoted

    def test_disk_versions_are_save_envelopes(self, trained, tmp_path):  # noqa: F811
        """Disk registry entries are ordinary SAVE_FORMAT pickles: any
        registered version loads with HybridPredictor.load."""
        from repro.core.predictor import HybridPredictor

        registry = ModelRegistry(tmp_path / "models")
        entry = registry.register(trained, source="initial")
        loaded = registry.get(entry.version)
        assert isinstance(loaded, HybridPredictor)
        assert loaded.rmse_val == trained.rmse_val
        direct = HybridPredictor.load(tmp_path / "models" / entry.file)
        assert direct.rmse_val == trained.rmse_val


class _SimulatedCrash(Exception):
    pass


class _CrashAfterFirstBytes:
    """File handle that writes a few bytes, then dies like a killed process."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:16])
        self._fh.flush()
        raise _SimulatedCrash("process killed mid-write")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()


def crash_writes_into(monkeypatch, directory, name):
    """Make every write-mode open of a file in ``directory`` whose name
    starts with ``name`` die after its first bytes."""
    import builtins
    import io

    real_open = io.open

    def crashing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        path = Path(file)
        if "w" in mode and path.parent == directory and path.name.startswith(name):
            return _CrashAfterFirstBytes(fh)
        return fh

    monkeypatch.setattr(io, "open", crashing_open)
    monkeypatch.setattr(builtins, "open", crashing_open)


class TestRegistryCrashSafety:
    """A crash mid-write must not wedge the registry: reopening it finds
    the last complete manifest and every version it lists still loads."""

    @pytest.mark.parametrize("target", ["manifest.json", "v002.pkl"])
    def test_interrupted_write_keeps_previous_version(
        self, trained, tmp_path, monkeypatch, target  # noqa: F811
    ):
        from repro.core.predictor import HybridPredictor

        root = tmp_path / "models"
        registry = ModelRegistry(root)
        registry.promote(registry.register(trained, source="initial").version)
        with monkeypatch.context() as patch:
            crash_writes_into(patch, root, target)
            with pytest.raises(_SimulatedCrash):
                registry.register(trained, source="fine-tune@10", parent=1)

        reopened = ModelRegistry(root)
        assert [v.version for v in reopened.versions] == [1]
        assert reopened.active == 1
        loaded = reopened.get(1)
        assert isinstance(loaded, HybridPredictor)
        assert loaded.rmse_val == trained.rmse_val
        # No truncated file is left under a final name: every model file
        # present loads, and no temp file survives.
        for path in root.glob("v*.pkl"):
            assert HybridPredictor.load(path).rmse_val == trained.rmse_val
        assert not [p.name for p in root.iterdir() if ".tmp" in p.name]


class TestRetrainWorker:
    def test_delivery_latency_is_deterministic(self):
        worker = RetrainWorker(
            lambda seed: None, RetrainConfig(delivery_intervals=5)
        )
        worker.submit(TunableStub(), interval=10)
        assert worker.busy
        assert worker.poll(14) is None
        challenger = worker.poll(15)
        assert challenger is not None and challenger.tuned
        assert not worker.busy

    def test_challenger_is_a_copy(self):
        incumbent = TunableStub()
        worker = RetrainWorker(
            lambda seed: None, RetrainConfig(delivery_intervals=0)
        )
        worker.submit(incumbent, interval=0)
        challenger = worker.poll(0)
        assert challenger is not incumbent
        assert challenger.tuned and not incumbent.tuned

    def test_double_submit_rejected(self):
        worker = RetrainWorker(lambda seed: None, RetrainConfig())
        worker.submit(TunableStub(), interval=0)
        with pytest.raises(RuntimeError, match="in flight"):
            worker.submit(TunableStub(), interval=1)

    def test_failure_surfaces_error_and_clears(self):
        calls = []

        def explode(seed):
            calls.append(seed)
            raise RuntimeError("collection died")

        worker = RetrainWorker(explode, RetrainConfig(delivery_intervals=2))
        worker.submit(TunableStub(), interval=0)
        assert worker.poll(2) is None
        assert "collection died" in worker.error
        assert not worker.busy  # can resubmit
        worker.submit(TunableStub(), interval=3)
        assert len(calls) == 2  # second attempt actually ran

    def test_seeds_bump_per_submission(self):
        seeds = []
        worker = RetrainWorker(
            lambda seed: seeds.append(seed), RetrainConfig(delivery_intervals=0, seed=40)
        )
        worker.submit(TunableStub(), 0)
        worker.poll(0)
        worker.submit(TunableStub(), 1)
        assert seeds == [40, 41]

    def test_thread_mode_delivers(self):
        worker = RetrainWorker(
            lambda seed: None,
            RetrainConfig(delivery_intervals=0, use_thread=True),
        )
        worker.submit(TunableStub(), interval=0)
        if worker._thread is not None:
            worker._thread.join()
        challenger = worker.poll(0)
        assert challenger is not None and challenger.tuned

    def test_cancel_drops_pending(self):
        worker = RetrainWorker(lambda seed: None, RetrainConfig(delivery_intervals=0))
        worker.submit(TunableStub(), interval=0)
        worker.cancel()
        assert worker.poll(100) is None
        assert not worker.busy


class TestShadowEvaluator:
    def test_agreement_produces_no_record(self):
        incumbent = make_scheduler(StubPredictor())
        shadow = ShadowEvaluator(StubPredictor(), incumbent, version=2)
        log = make_log()
        alloc = incumbent.decide(log)
        assert shadow.observe(log, alloc) is None
        report = shadow.report()
        assert report.intervals == 1 and report.divergences == 0

    def test_divergence_record_fields(self):
        incumbent = make_scheduler(StubPredictor())  # happily scales down

        def challenger_prob(alloc):
            # hold is risky, only big scale-ups acceptable
            return 0.02 if alloc.sum() > 8.5 else 0.5

        shadow = ShadowEvaluator(
            StubPredictor(prob_fn=challenger_prob), incumbent, version=3
        )
        log = make_log()
        alloc = incumbent.decide(log)
        record = shadow.observe(log, alloc)
        assert isinstance(record, DivergenceRecord)
        assert record.challenger_version == 3
        assert record.challenger_total_cpu > record.incumbent_total_cpu
        assert record.incumbent_kind == "scale-down"
        assert shadow.report().divergences == 1

    def test_calibration_mae_pairs_lagged_predictions(self):
        incumbent = make_scheduler(StubPredictor(latency_fn=lambda a: 120.0))
        shadow = ShadowEvaluator(
            StubPredictor(latency_fn=lambda a: 80.0), incumbent, version=2
        )
        for _ in range(4):
            log = make_log(p99=100.0)
            alloc = incumbent.decide(log)
            shadow.observe(log, alloc)
        report = shadow.report()
        # First observe has no previous prediction; three pairs follow.
        assert report.calibration_samples == 3
        assert report.incumbent_mae_ms == pytest.approx(20.0)
        assert report.challenger_mae_ms == pytest.approx(20.0)

    def test_incumbent_counters_are_window_deltas(self):
        incumbent = make_scheduler(StubPredictor())
        incumbent.decide(make_log(p99=100.0))
        incumbent.decide(make_log(p99=400.0))  # misprediction before shadow
        shadow = ShadowEvaluator(StubPredictor(), incumbent, version=2)
        log = make_log(p99=100.0)
        shadow.observe(log, incumbent.decide(log))
        assert shadow.report().incumbent_mispredictions == 0


def report_with(**overrides) -> ShadowReport:
    base = dict(
        version=2, intervals=30, divergences=4,
        challenger_mispredictions=0, challenger_fallbacks=0,
        incumbent_mispredictions=5, incumbent_fallbacks=0,
        challenger_mae_ms=20.0, incumbent_mae_ms=40.0,
        calibration_samples=20,
    )
    base.update(overrides)
    return ShadowReport(**base)


class TestPromotionGate:
    def test_clean_report_promotes(self):
        decision = PromotionGate().judge(report_with())
        assert decision.promote and decision.reason == "ok"
        assert decision.metrics["intervals"] == 30

    def test_too_short_shadow_rejected(self):
        decision = PromotionGate(min_intervals=40).judge(report_with())
        assert not decision.promote
        assert decision.reason == "shadow-too-short"

    def test_misprediction_rate_rejected(self):
        decision = PromotionGate().judge(
            report_with(challenger_mispredictions=10)
        )
        assert decision.reason == "misprediction-rate"

    def test_fallback_rate_rejected(self):
        decision = PromotionGate().judge(report_with(challenger_fallbacks=20))
        assert decision.reason == "fallback-rate"

    def test_worse_calibration_rejected(self):
        decision = PromotionGate().judge(report_with(challenger_mae_ms=60.0))
        assert decision.reason == "calibration-no-better"

    def test_missing_calibration_skips_mae_check(self):
        decision = PromotionGate().judge(
            report_with(challenger_mae_ms=float("nan"), calibration_samples=0)
        )
        assert decision.promote

    def test_cpu_regression_rejected(self):
        decision = PromotionGate().judge(report_with(
            challenger_mean_total_cpu=120.0,
            incumbent_mean_total_cpu=100.0,
        ))
        assert not decision.promote
        assert decision.reason == "cpu-regression"
        assert decision.metrics["challenger_mean_total_cpu"] == 120.0

    def test_cpu_within_tolerance_promotes(self):
        decision = PromotionGate().judge(report_with(
            challenger_mean_total_cpu=104.0,
            incumbent_mean_total_cpu=100.0,
        ))
        assert decision.promote

    def test_cpu_regression_tolerance_is_configurable(self):
        gate = PromotionGate(max_cpu_regression=0.5)
        decision = gate.judge(report_with(
            challenger_mean_total_cpu=120.0,
            incumbent_mean_total_cpu=100.0,
        ))
        assert decision.promote

    def test_missing_cpu_samples_skip_cpu_check(self):
        # Default report carries NaN CPU means (legacy reports, or a
        # shadow that never observed a decision) — not a rejection.
        decision = PromotionGate().judge(report_with())
        assert decision.promote

    def test_shadow_report_tracks_cpu_means(self):
        incumbent = make_scheduler(StubPredictor())
        shadow = ShadowEvaluator(StubPredictor(), incumbent, version=2)
        for _ in range(3):
            log = make_log(p99=100.0)
            shadow.observe(log, incumbent.decide(log))
        report = shadow.report()
        assert np.isfinite(report.challenger_mean_total_cpu)
        assert np.isfinite(report.incumbent_mean_total_cpu)
        assert report.incumbent_mean_total_cpu > 0

    def test_decision_is_dataclass(self):
        assert GateDecision(True, "ok").metrics == {}

    @settings(max_examples=200, deadline=None)
    @given(
        field=st.sampled_from(["challenger_mae_ms", "challenger_mean_total_cpu"]),
        bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        samples=st.integers(min_value=5, max_value=10_000),
        incumbent_mae=st.floats(min_value=0.0, max_value=1e6),
        incumbent_cpu=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_non_finite_challenger_stat_never_promotes(
        self, field, bad, samples, incumbent_mae, incumbent_cpu
    ):
        """Against a finite incumbent, a NaN or infinite challenger MAE
        or mean CPU is a failed check, not a skipped one."""
        stats = dict(
            calibration_samples=samples,
            challenger_mae_ms=0.0,
            incumbent_mae_ms=incumbent_mae,
            challenger_mean_total_cpu=0.0,
            incumbent_mean_total_cpu=incumbent_cpu,
        )
        stats[field] = bad
        decision = PromotionGate().judge(report_with(**stats))
        assert not decision.promote
        assert decision.reason != "ok"


class TestContinuousStateMachine:
    def test_healthy_stream_stays_in_monitor(self):
        manager = make_manager()
        drive(manager, 40, p99=100.0)
        assert manager.state == manager.STATE_MONITOR
        assert manager.retrains == 0 and manager.events == []

    def test_drift_triggers_retrain_then_shadow(self):
        manager = make_manager()
        drive(manager, 20, alternate=True)
        events = [e.event for e in manager.events
                  if isinstance(e, ModelEventRecord)]
        assert events[:3] == [EVENT_DRIFT, EVENT_RETRAIN_STARTED,
                              EVENT_SHADOW_STARTED]
        assert manager.retrains == 1

    def test_full_cycle_promotes_passing_challenger(self):
        manager = make_manager(
            scheduler_config=SchedulerConfig(p_down=None, p_up=None)
        )
        drive(manager, 10, alternate=True)  # drift + retrain delivery
        drive(manager, 24, p99=100.0)  # clean shadow window
        assert manager.promotions == 1
        assert manager.predictor.tuned  # challenger is live
        assert manager.incumbent_version == 2
        assert manager.registry.active == 2
        assert manager.registry.entry(2).promoted
        # Promotion refreshed the calibrated thresholds.
        assert manager.scheduler.p_down == pytest.approx(0.05)
        assert manager.scheduler.p_up == pytest.approx(0.3)
        promoted = [e for e in manager.events
                    if isinstance(e, ModelEventRecord)
                    and e.event == EVENT_PROMOTED]
        assert len(promoted) == 1 and promoted[0].version == 2

    def test_promotion_disabled_keeps_incumbent(self):
        manager = make_manager(promote=False)
        drive(manager, 10, alternate=True)
        drive(manager, 24, p99=100.0)
        assert manager.promotions == 0
        assert not manager.predictor.tuned
        assert manager.incumbent_version == 1
        rejected = [e for e in manager.events
                    if isinstance(e, ModelEventRecord)
                    and e.event == EVENT_REJECTED]
        assert rejected and rejected[0].reason == "promotion-disabled"

    def test_failing_challenger_rejected(self):
        class BrokenTune(TunableStub):
            def fine_tune(self, dataset, **kw):
                super().fine_tune(dataset, **kw)
                # tuned model still predicts everything safe
                self.prob_fn = lambda alloc: 0.0

        manager = make_manager(BrokenTune())
        drive(manager, 60, alternate=True)  # violations continue in shadow
        assert manager.promotions == 0
        rejected = [e for e in manager.events
                    if isinstance(e, ModelEventRecord)
                    and e.event == EVENT_REJECTED]
        assert rejected and rejected[0].reason == "misprediction-rate"
        assert manager.incumbent_version == 1

    def test_retrain_failure_emits_rejection(self):
        def explode(seed):
            raise RuntimeError("no data")

        manager = make_manager(collect=explode)
        drive(manager, 20, alternate=True)
        rejected = [e for e in manager.events
                    if isinstance(e, ModelEventRecord)
                    and e.event == EVENT_REJECTED]
        assert rejected and rejected[0].reason == "retrain-failed"
        assert "no data" in rejected[0].detail
        assert manager.state == manager.STATE_MONITOR

    def test_detect_only_mode(self):
        manager = make_manager(collect=None)
        drive(manager, 30, alternate=True)
        assert manager.retrains == 0
        events = [e.event for e in manager.events
                  if isinstance(e, ModelEventRecord)]
        assert EVENT_DRIFT in events
        assert EVENT_RETRAIN_STARTED not in events

    def test_max_retrains_cap(self):
        manager = make_manager(
            retrain_config=RetrainConfig(
                delivery_intervals=2, shadow_intervals=4, max_retrains=1
            ),
            drift_config=DriftConfig(
                window=10, min_decisions=5, misprediction_rate=0.2, cooldown=5
            ),
            promote=False,
        )
        drive(manager, 80, alternate=True)
        assert manager.retrains == 1
        signals = [e for e in manager.events
                   if isinstance(e, ModelEventRecord)
                   and e.event == EVENT_DRIFT]
        assert len(signals) > 1  # drift keeps being recorded

    def test_reset_clears_episode_state(self):
        manager = make_manager()
        drive(manager, 20, alternate=True)
        assert manager.events
        manager.reset()
        assert manager.events == []
        assert manager.state == manager.STATE_MONITOR
        assert manager.shadow is None
        assert not manager.worker.busy

    def test_caller_registry_is_used_even_when_empty(self):
        # Regression: a fresh registry has __len__ == 0 and is falsy, so
        # `registry or ModelRegistry()` silently replaced it.
        registry = ModelRegistry()
        manager = make_manager(registry=registry)
        assert manager.registry is registry
        assert registry.active == 1  # initial model registered + promoted

    def test_events_mirrored_to_attached_audit_log(self):
        from repro.obs.recorder import ActiveRecorder, attach_recorder

        manager = make_manager()
        recorder = ActiveRecorder()
        attach_recorder(recorder, manager=manager)
        drive(manager, 20, alternate=True)
        assert recorder.audit_log.model_events()
        assert len(recorder.audit_log.decisions()) == 20


# ----------------------------------------------------------------------
# Bitwise shadow-equivalence suite (ISSUE acceptance criterion)
# ----------------------------------------------------------------------


def make_fault_cluster(users, seed, fault_profile=None):
    graph = make_tiny_graph()
    mix = RequestMix.from_ratios({"Read": 9, "Write": 1})
    workload = Workload(graph, ConstantLoad(users), mix)
    faults = None
    if fault_profile is not None:
        faults = FaultInjector(
            resolve_profile(fault_profile), graph.n_tiers, seed=seed
        )
    return ClusterSimulator(graph, workload, seed=seed, faults=faults)


def run_traced_episode(manager, cluster, duration):
    """Run an episode recording every allocation the manager returned."""
    manager.reset()
    allocs = []
    for _ in range(duration):
        alloc = manager.decide(cluster.observed)
        allocs.append(None if alloc is None else alloc.copy())
        cluster.step(alloc)
    return allocs, cluster


class TestShadowEquivalence:
    """Shadow mode must be provably non-intrusive: the incumbent's
    decisions, the cluster trajectory, and the episode RNG are bitwise
    identical with the continuous-learning machinery on (promotion
    disabled) and with a plain SinanManager."""

    DURATION = 70
    USERS = 150
    SEED = 11

    def _continuous(self, trained, tiny_dataset):  # noqa: F811
        return ContinuousSinanManager(
            trained,
            QOS,
            collect=lambda seed: tiny_dataset,
            graph=make_tiny_graph(),
            drift_config=DriftConfig(
                window=10, min_decisions=5, calibration_frac=0.0,
                min_calibration_samples=3, cooldown=15,
            ),
            retrain_config=RetrainConfig(
                delivery_intervals=5, shadow_intervals=10, epochs=1
            ),
            promote=False,
        )

    @pytest.mark.parametrize("profile", [None, "chaos"])
    def test_bitwise_identical_to_plain_sinan(
        self, trained, tiny_dataset, profile  # noqa: F811
    ):
        plain = SinanManager(trained, QOS, make_tiny_graph())
        base_allocs, base_cluster = run_traced_episode(
            plain, make_fault_cluster(self.USERS, self.SEED, profile),
            self.DURATION,
        )

        manager = self._continuous(trained, tiny_dataset)
        cont_allocs, cont_cluster = run_traced_episode(
            manager, make_fault_cluster(self.USERS, self.SEED, profile),
            self.DURATION,
        )

        # The machinery actually engaged — the comparison is not vacuous.
        assert manager.retrains >= 1
        shadow_started = [
            e for e in manager.events
            if isinstance(e, ModelEventRecord)
            and e.event == EVENT_SHADOW_STARTED
        ]
        assert shadow_started
        assert manager.promotions == 0

        # Decision-for-decision bitwise equality.
        assert len(base_allocs) == len(cont_allocs)
        for a, b in zip(base_allocs, cont_allocs):
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert np.array_equal(a, b)

        # Ground-truth trajectory and the manager's observed view.
        for log_a, log_b in (
            (base_cluster.telemetry, cont_cluster.telemetry),
            (base_cluster.observed, cont_cluster.observed),
        ):
            assert len(log_a) == len(log_b)
            for s_a, s_b in zip(log_a, log_b):
                assert np.array_equal(
                    s_a.latency_ms, s_b.latency_ms, equal_nan=True
                )
                assert np.array_equal(s_a.cpu_alloc, s_b.cpu_alloc)

        # Episode RNG consumed identically.
        assert (
            base_cluster.engine._rng.bit_generator.state
            == cont_cluster.engine._rng.bit_generator.state
        )


class TestPooledBoundaryCollection:
    """Boundary sweeps fan out over the process pool by default and stay
    bit-identical to serial, and the shadow loop stays non-intrusive
    when collection runs on worker processes."""

    COLLECT_KWARGS = dict(
        loads=(60.0, 150.0),
        seconds_per_load=20,
        cluster_factory=make_fault_cluster,
    )

    def _collector(self, jobs):
        from repro.harness.continuous import BoundaryCollector

        return BoundaryCollector(
            make_tiny_graph(), QOS, jobs=jobs, **self.COLLECT_KWARGS
        )

    def test_pooled_collection_bit_identical_to_serial(self):
        serial = self._collector(jobs=1)(5)
        pooled = self._collector(jobs=2)(5)
        for attr in ("X_RH", "X_LH", "X_RC", "y_lat", "y_viol"):
            np.testing.assert_array_equal(
                getattr(serial, attr), getattr(pooled, attr)
            )

    def test_default_jobs_resolution(self, monkeypatch):
        from repro.harness import continuous

        monkeypatch.setenv("REPRO_JOBS", "3")
        assert continuous._default_jobs() == 3
        monkeypatch.delenv("REPRO_JOBS")
        assert continuous._default_jobs() == 0  # one worker per CPU

    def test_shadow_non_intrusive_with_pooled_collection(self, trained):  # noqa: F811
        """Same bitwise gate as :class:`TestShadowEquivalence`, but the
        retrain worker's dataset really is collected on a 2-process
        pool while the live episode runs."""
        duration, users, seed = 70, 150, 11
        plain = SinanManager(trained, QOS, make_tiny_graph())
        base_allocs, base_cluster = run_traced_episode(
            plain, make_fault_cluster(users, seed), duration
        )

        manager = ContinuousSinanManager(
            trained,
            QOS,
            collect=self._collector(jobs=2),
            graph=make_tiny_graph(),
            drift_config=DriftConfig(
                window=10, min_decisions=5, calibration_frac=0.0,
                min_calibration_samples=3, cooldown=15,
            ),
            retrain_config=RetrainConfig(
                delivery_intervals=5, shadow_intervals=10, epochs=1
            ),
            promote=False,
        )
        cont_allocs, cont_cluster = run_traced_episode(
            manager, make_fault_cluster(users, seed), duration
        )

        # The pooled collection actually ran and produced a challenger.
        assert manager.retrains >= 1
        assert manager.worker.error is None

        for a, b in zip(base_allocs, cont_allocs):
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert np.array_equal(a, b)
        assert (
            base_cluster.engine._rng.bit_generator.state
            == cont_cluster.engine._rng.bit_generator.state
        )
