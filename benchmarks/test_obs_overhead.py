"""(ours) Observability overhead: a disabled recorder costs nothing.

The acceptance bar for the observability subsystem (ISSUE PR 5): with
the recorder off — the default — the instrumented decision path must be
within noise of the uninstrumented one, and episodes must be bitwise
identical whether a recorder is attached or not.

The off-path A/B is measured in-process to stay machine-independent:
``OnlineScheduler.decide`` (the instrumented wrapper, recorder
disabled) against ``OnlineScheduler._decide`` (the raw decision body
the wrapper grew around).  Both arms replay the same feedback episode,
so a single diverging decision would diverge every later interval.
"""

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.core.actions import ActionSpace
from repro.core.scheduler import OnlineScheduler
from benchmarks.bench import BenchConfig, make_synthetic_predictor
from repro.harness.pipeline import app_spec, make_cluster
from repro.obs import ActiveRecorder

#: Noise floor per decision (ms): below this, a relative bound on a
#: ~10 ms decision is dominated by scheduler jitter, not instrumentation.
ABS_FLOOR_MS = 0.10
REL_BOUND = 1.02  # disabled-recorder path within 2% of the raw body

_CONFIG = BenchConfig(n_trees=150, tree_depth=5, decision_intervals=15)


def _replay(predictor, use_wrapper: bool, recorder=None):
    """One managed episode; returns (decision trace, ms per decision)."""
    spec = app_spec(_CONFIG.app)
    graph = spec.graph_factory()
    lo, hi = spec.collection_load_range
    cluster = make_cluster(graph, users=(lo + hi) / 2, seed=_CONFIG.seed + 7)
    space = ActionSpace(graph.min_alloc(), graph.max_alloc())
    scheduler = OnlineScheduler(predictor, space, spec.qos)
    if recorder is not None:
        scheduler.recorder = recorder
        cluster.recorder = recorder
        cluster.engine.recorder = recorder
        predictor.recorder = recorder
    predictor.encoder.invalidate_cache()
    decide = scheduler.decide if use_wrapper else scheduler._decide

    trace: list[np.ndarray] = []
    spent = 0.0
    for _ in range(_CONFIG.decision_intervals):
        cluster.step(cluster.current_alloc)
        t0 = time.perf_counter()
        alloc = decide(cluster.observed)
        spent += time.perf_counter() - t0
        if alloc is not None:
            cluster.step(alloc)
            trace.append(np.asarray(alloc, dtype=float))
    if recorder is not None:
        predictor.__dict__.pop("recorder", None)
    return trace, spent * 1e3 / _CONFIG.decision_intervals


def test_disabled_recorder_within_noise(benchmark):
    predictor = make_synthetic_predictor(_CONFIG)

    def measure():
        # One unmeasured replay per arm warms every lazy path (einsum
        # plans, compiled trees, encoder cache); the arms then alternate
        # so background load hits both equally, and min-over-repeats
        # discards one-off hiccups.
        _replay(predictor, use_wrapper=True)
        _replay(predictor, use_wrapper=False)
        wrapped, raw = [], []
        for _ in range(4):
            wrapped.append(_replay(predictor, use_wrapper=True)[1])
            raw.append(_replay(predictor, use_wrapper=False)[1])
        return min(wrapped), min(raw)

    wrapped_ms, raw_ms = run_once(benchmark, measure)

    overhead_ms = wrapped_ms - raw_ms
    print(f"\nper-decision: wrapped={wrapped_ms:.3f}ms raw={raw_ms:.3f}ms "
          f"overhead={overhead_ms:+.3f}ms")
    assert wrapped_ms <= max(raw_ms * REL_BOUND, raw_ms + ABS_FLOOR_MS), (
        f"disabled-recorder decide() is {overhead_ms:.3f}ms/decision slower "
        f"than the raw decision body ({wrapped_ms:.3f} vs {raw_ms:.3f})"
    )

    # The wrapper must not change a single decision either.
    trace_wrapped, _ = _replay(predictor, use_wrapper=True)
    trace_raw, _ = _replay(predictor, use_wrapper=False)
    assert len(trace_wrapped) == len(trace_raw)
    for a, b in zip(trace_wrapped, trace_raw):
        np.testing.assert_array_equal(a, b)


def test_active_recorder_identical_decisions(benchmark):
    """Recording everything still changes nothing but the artifacts."""
    predictor = make_synthetic_predictor(_CONFIG)

    def measure():
        off = _replay(predictor, use_wrapper=True)
        recorder = ActiveRecorder()
        on = _replay(predictor, use_wrapper=True, recorder=recorder)
        return off, on, recorder

    (trace_off, ms_off), (trace_on, ms_on), recorder = run_once(
        benchmark, measure
    )

    print(f"\nper-decision: off={ms_off:.3f}ms on={ms_on:.3f}ms "
          f"({len(recorder.tracer)} spans, "
          f"{len(recorder.audit_log)} audit records)")
    assert len(trace_off) == len(trace_on)
    for a, b in zip(trace_off, trace_on):
        np.testing.assert_array_equal(a, b)
    assert len(recorder.audit_log) > 0
    assert len(recorder.tracer) > 0
