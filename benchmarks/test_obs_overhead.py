"""(ours) Observability overhead: a disabled recorder costs nothing.

The acceptance bar for the observability subsystem: with the recorder
off — the default — the instrumented decision path must be within noise
of the uninstrumented one, and episodes must be bitwise identical
whether a recorder is attached or not.

The off-path A/B is measured in-process to stay machine-independent:
``OnlineScheduler.decide`` (the instrumented wrapper, recorder
disabled) against ``OnlineScheduler._decide`` (the raw decision body
the wrapper grew around).  Both arms replay the same feedback episode,
so a single diverging decision would diverge every later interval.
"""

import numpy as np

from benchmarks import bench
from benchmarks.conftest import run_once
from repro.obs import ActiveRecorder

#: Noise floor per decision (ms): below this, a relative bound on a
#: ~10 ms decision is dominated by scheduler jitter, not instrumentation.
ABS_FLOOR_MS = 0.10
REL_BOUND = 1.02  # disabled-recorder path within 2% of the raw body

_CONFIG = bench.BenchConfig(n_trees=150, tree_depth=5, decision_intervals=15)


def _replay(predictor, use_wrapper: bool, recorder=None) -> bench.Replay:
    manager = bench.sinan(predictor)
    scheduler = manager.scheduler
    return bench.replay(
        manager, _CONFIG.decision_intervals, bench.SEED + 7,
        decide=scheduler.decide if use_wrapper else scheduler._decide,
        recorder=recorder,
    )


def _assert_same_trace(a: bench.Replay, b: bench.Replay) -> None:
    assert len(a.trace) == len(b.trace)
    for x, y in zip(a.trace, b.trace):
        np.testing.assert_array_equal(x, y)


def test_disabled_recorder_within_noise(benchmark):
    predictor = bench.make_synthetic_predictor(_CONFIG)

    def arm(use_wrapper: bool):
        return lambda: float(np.mean(_replay(predictor, use_wrapper).decide_s))

    # One unmeasured replay per arm warms every lazy path (conv buffers,
    # compiled trees, encoder cache); the arms then alternate so
    # background load hits both equally, and min-over-repeats discards
    # one-off hiccups.
    timing = run_once(benchmark, lambda: bench.alternate(
        arm(True), arm(False), 4, warmup=1, self_timed=True
    ))

    wrapped_ms, raw_ms = min(timing.fast_s) * 1e3, min(timing.reference_s) * 1e3
    overhead_ms = wrapped_ms - raw_ms
    print(f"\nper-decision: wrapped={wrapped_ms:.3f}ms raw={raw_ms:.3f}ms "
          f"overhead={overhead_ms:+.3f}ms")
    check = bench.gate(
        "disabled_recorder_ms", wrapped_ms, "<=",
        max(raw_ms * REL_BOUND, raw_ms + ABS_FLOOR_MS),
    )
    assert check["ok"], check

    # The wrapper must not change a single decision either.
    _assert_same_trace(_replay(predictor, True), _replay(predictor, False))


def test_active_recorder_identical_decisions(benchmark):
    """Recording everything still changes nothing but the artifacts."""
    predictor = bench.make_synthetic_predictor(_CONFIG)
    recorder = ActiveRecorder()

    off, on = run_once(benchmark, lambda: (
        _replay(predictor, True), _replay(predictor, True, recorder)
    ))

    print(f"\nper-decision: off={np.mean(off.decide_s) * 1e3:.3f}ms "
          f"on={np.mean(on.decide_s) * 1e3:.3f}ms "
          f"({len(recorder.tracer)} spans, "
          f"{len(recorder.audit_log)} audit records)")
    _assert_same_trace(off, on)
    assert len(recorder.audit_log) > 0
    assert len(recorder.tracer) > 0
