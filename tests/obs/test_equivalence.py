"""Recorder on vs off must not change a single decision or sample.

The acceptance bar for the observability subsystem: episodes run with a
fully active :class:`~repro.obs.ActiveRecorder` are bitwise identical
to episodes run without one — same allocations, same latencies, same
prediction trace — while the artifacts (spans, metrics, audit records)
are actually populated.
"""

import numpy as np
import pytest

from benchmarks.bench import APP, BenchConfig, make_synthetic_predictor
from repro.harness.experiment import run_episode
from repro.harness.pipeline import app_spec, make_cluster, make_manager
from repro.harness.resilience import run_resilience_episode
from repro.obs import ActiveRecorder

DURATION = 20
WARMUP = 5
USERS = 200

_CONFIG = BenchConfig(n_trees=40, tree_depth=4)


def run_pair(fault_profile=None):
    """The same episode twice: recorder off, then recorder on."""
    spec = app_spec(APP)
    outcomes = []
    for recorder in (None, ActiveRecorder()):
        predictor = make_synthetic_predictor(_CONFIG)
        manager = make_manager("sinan", spec.graph_factory(), spec.qos,
                               predictor)
        cluster = make_cluster(
            spec.graph_factory(), users=USERS, seed=3,
            fault_profile=fault_profile,
        )
        if fault_profile is None:
            result = run_episode(manager, cluster, DURATION, spec.qos,
                                 warmup=WARMUP, recorder=recorder)
        else:
            result = run_resilience_episode(manager, cluster, DURATION,
                                            spec.qos, warmup=WARMUP,
                                            recorder=recorder)
        outcomes.append((result, cluster, manager, recorder))
    return outcomes


def assert_bitwise_equal(off, on):
    (_, cluster_off, manager_off, _) = off
    (_, cluster_on, manager_on, _) = on
    np.testing.assert_array_equal(
        cluster_off.telemetry.alloc_matrix(),
        cluster_on.telemetry.alloc_matrix(),
    )
    np.testing.assert_array_equal(
        cluster_off.telemetry.latency_matrix(),
        cluster_on.telemetry.latency_matrix(),
    )
    trace_off = manager_off.prediction_trace
    trace_on = manager_on.prediction_trace
    assert len(trace_off) == len(trace_on)
    for a, b in zip(trace_off, trace_on):
        assert set(a) == set(b)
        for key in a:
            # NaN-aware: safety-path entries legitimately carry NaN.
            np.testing.assert_array_equal(a[key], b[key])


class TestEquivalence:
    def test_normal_episode_identical(self):
        off, on = run_pair()
        assert_bitwise_equal(off, on)

    def test_fault_episode_identical(self):
        off, on = run_pair(fault_profile="chaos")
        assert_bitwise_equal(off, on)

    def test_recorder_artifacts_populated(self):
        _, on = run_pair()
        result, _, manager, recorder = on
        assert len(recorder.tracer) > 0
        # One audit record per decision the scheduler actually made.
        assert len(recorder.audit_log) == manager.scheduler.decisions
        snap = recorder.metrics.snapshot()
        assert snap["engine_intervals_total"]["samples"][0]["value"] == DURATION
        assert snap["scheduler_decisions_total"]["samples"][0]["value"] > 0
        # Decision spans land on the scheduler track.
        assert any(s.track == "scheduler" for s in recorder.tracer.spans)

    def test_fault_counters_populated(self):
        _, on = run_pair(fault_profile="chaos")
        _, _, _, recorder = on
        snap = recorder.metrics.snapshot()
        observed = snap["faults_observed_intervals_total"]["samples"][0]
        assert observed["value"] == DURATION

    def test_two_recorded_runs_identical_traces(self):
        """Determinism of the artifact itself, not just the episode.

        The one intentional wall-clock measurement is the *duration* of
        ``decide`` spans (decision overhead), so those durations are
        normalized before comparing; everything else — span names,
        tracks, simulation timestamps, args, audit records — must match
        exactly across runs.
        """
        def normalized(tracer):
            return [
                {**s.to_json(), "dur_us": 0} if s.cat == "decision"
                else s.to_json()
                for s in tracer._ordered()
            ]

        _, on_a = run_pair()
        _, on_b = run_pair()
        assert normalized(on_a[3].tracer) == normalized(on_b[3].tracer)
        audits_a = [r.to_json() for r in on_a[3].audit_log]
        audits_b = [r.to_json() for r in on_b[3].audit_log]
        assert len(audits_a) == len(audits_b)
        for a, b in zip(audits_a, audits_b):
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])
