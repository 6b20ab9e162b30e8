"""(ours) Decision-path performance: fast vs reference scoring.

Times one scheduler decision — candidate encoding, shared-trunk CNN
inference, compiled Boosted-Trees inference, selection — across
candidate counts and window lengths, asserting the fast path is
bitwise-equivalent to the reference path and at least 5x faster at 64+
candidates.  Results are written to ``BENCH_decision.json`` at the repo
root.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from benchmarks.bench import (
    BenchConfig,
    bench_components,
    make_bench_log,
    make_synthetic_predictor,
    run_bench,
)
from benchmarks.conftest import run_once
from repro.harness.reporting import format_table

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_decision_path_speedup(benchmark):
    config = BenchConfig(
        candidate_counts=(16, 64, 128),
        repeats=10,
        output=str(REPO_ROOT / "BENCH_decision.json"),
    )

    results = run_once(benchmark, lambda: run_bench(config))

    print()
    rows = [
        [
            row["candidates"],
            f"{row['total']['fast_ms']:.2f}",
            f"{row['total']['reference_ms']:.2f}",
            f"{row['total']['speedup']:.1f}x",
            "yes" if row["bitwise_equal"] else "NO",
        ]
        for row in results["components"]
    ]
    print(format_table(
        ["Candidates", "Fast (ms)", "Reference (ms)", "Speedup", "Bitwise equal"],
        rows,
        title="Per-decision scoring (social_network, 28 tiers, 300 trees)",
    ))
    sched = results["scheduler"]
    print(f"scheduler replay: {sched['decisions']} decisions, "
          f"{sched['speedup']:.1f}x, traces "
          + ("identical" if sched["identical_traces"] else "DIVERGED"))

    # Every batch size must be bitwise-equivalent; the optimization is
    # only shippable because it changes nothing but wall-clock time.
    assert all(row["bitwise_equal"] for row in results["components"])
    assert sched["identical_traces"]

    # Acceptance: >= 5x end-to-end at 64+ candidates.
    for row in results["components"]:
        if row["candidates"] >= 64:
            assert row["total"]["speedup"] >= 5.0, row

    artifact = REPO_ROOT / "BENCH_decision.json"
    assert artifact.exists()
    assert json.loads(artifact.read_text())["components"]


@pytest.mark.parametrize("window", [5, 10])
def test_decision_path_windows(benchmark, window):
    """Equivalence and speedup hold across telemetry window lengths."""
    config = BenchConfig(
        candidate_counts=(64,),
        n_timesteps=window,
        repeats=5,
        n_trees=150,
        output="",
    )
    predictor = make_synthetic_predictor(config)
    log = make_bench_log(config)

    row = run_once(benchmark, lambda: bench_components(predictor, log, 64, config))

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

    config = BenchConfig()
    spec = app_spec(config.app)
    graph = spec.graph_factory()
    cluster = make_cluster(graph, users=200, seed=3)
    encoder = WindowEncoder(graph, config.n_timesteps)
    rng = np.random.default_rng(0)
    for _ in range(config.n_timesteps + 8):
        cluster.step(cluster.clip_alloc(
            cluster.current_alloc + rng.uniform(-0.2, 0.2, cluster.n_tiers)
        ))
        cached = encoder.encode_history(cluster.telemetry)
        fresh = WindowEncoder(graph, config.n_timesteps).encode_history(
            cluster.telemetry
        )
        assert np.array_equal(cached[0], fresh[0])
        assert np.array_equal(cached[1], fresh[1])
