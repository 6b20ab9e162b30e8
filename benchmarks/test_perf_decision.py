"""(ours) Decision-path performance: fast vs reference scoring.

Times one scheduler decision — candidate encoding, shared-history CNN
inference, compiled Boosted-Trees inference, selection — across
candidate counts and window lengths, asserting the fast path is
bitwise-equivalent to the reference path and at least 5x faster at 64+
candidates.  Results are written to ``BENCH_decision.json`` at the repo
root.
"""

import numpy as np
import pytest

from benchmarks import bench
from benchmarks.conftest import run_once


def test_decision_path_speedup(benchmark):
    run_once(benchmark, lambda: bench.run_bench(bench.BenchConfig(repeats=10)))

    written = bench.read_envelope("decision")
    print()
    print(bench.format_envelope(written))
    # Every batch size must be bitwise-equivalent to the oracle (the
    # optimization is only shippable because it changes nothing but
    # wall-clock time), within 1e-12 of the full B-copy CNN batch, and
    # >= 5x end-to-end at 64+ candidates.
    bench.assert_gates(written, [
        "bitwise_equal[16]", "bitwise_equal[64]", "bitwise_equal[128]",
        "cnn_gap[16]", "cnn_gap[64]", "cnn_gap[128]",
        "speedup[64]", "speedup[128]", "scheduler_identical_traces",
    ])


@pytest.mark.parametrize("window", [5, 10])
def test_decision_path_windows(benchmark, window):
    """Equivalence and speedup hold across telemetry window lengths."""
    config = bench.BenchConfig(n_timesteps=window, repeats=5, n_trees=150)
    predictor = bench.make_synthetic_predictor(config)
    log = bench.make_bench_log(config)

    row = run_once(
        benchmark, lambda: bench.bench_components(predictor, log, 64, config)
    )

    print(f"\nwindow={window}: {row['total']['speedup']:.1f}x, "
          f"equal={row['bitwise_equal']}")
    assert row["bitwise_equal"]
    assert row["total"]["speedup"] >= 5.0


def test_incremental_encode_matches_fresh():
    """The per-decision window cache never changes encoded values.

    Steps a live cluster, encoding after every interval with one
    long-lived encoder (exercising the shift-by-one path) and a fresh
    encoder (full rebuild); the tensors must match bitwise.
    """
    from repro.core.features import WindowEncoder
    from repro.harness.pipeline import app_spec, make_cluster

    window = bench.BenchConfig().n_timesteps
    graph = app_spec(bench.APP).graph_factory()
    cluster = make_cluster(graph, users=200, seed=3)
    encoder = WindowEncoder(graph, window)
    rng = np.random.default_rng(0)
    for _ in range(window + 8):
        cluster.step(cluster.clip_alloc(
            cluster.current_alloc + rng.uniform(-0.2, 0.2, cluster.n_tiers)
        ))
        cached = encoder.encode_history(cluster.telemetry)
        fresh = WindowEncoder(graph, window).encode_history(cluster.telemetry)
        assert np.array_equal(cached[0], fresh[0])
        assert np.array_equal(cached[1], fresh[1])
