"""(ours) Training-path performance: fast vs reference model fitting.

Times the three training workloads the scheduler periodically re-runs —
the Boosted-Trees fit (histogram grower vs per-node re-scan), a CNN
training epoch (im2col backprop vs einsum/tap-loop), and one full
``HybridPredictor.train`` — asserting the fast paths reproduce the
reference results (trees split-for-split, CNN losses to 1e-8) and that
end-to-end training is at least 4x faster at the benchmark config
(400 trees, 5 CNN epochs).  Results are written to
``BENCH_training.json`` at the repo root.
"""

import json
from pathlib import Path

from benchmarks.bench import (
    TrainingBenchConfig,
    format_training_bench,
    run_training_bench,
)
from benchmarks.conftest import run_once

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_training_path_speedup(benchmark):
    config = TrainingBenchConfig(
        output=str(REPO_ROOT / "BENCH_training.json"),
    )
    assert config.n_trees >= 200 and config.cnn_epochs >= 5

    results = run_once(benchmark, lambda: run_training_bench(config))

    print()
    print(format_training_bench(results))

    # The fast paths must be drop-in: identical trees, matching loss
    # trajectories, and end-to-end model quality within tolerance.
    tf = results["tree_fit"]
    assert tf["structures_equal"]
    assert tf["margins_bitwise_equal"]
    assert results["cnn_fit"]["losses_close"]
    assert results["end_to_end"]["quality_close"]
    assert results["equivalent"]

    # Acceptance: >= 4x end-to-end HybridPredictor.train at the
    # benchmark config (>= 200 trees, >= 5 CNN epochs).
    assert results["end_to_end"]["speedup"] >= 4.0, results["end_to_end"]
    # The tree fit is the dominant retraining cost; it should be well
    # clear of the end-to-end bar on its own.
    assert tf["speedup"] >= 4.0, tf

    artifact = REPO_ROOT / "BENCH_training.json"
    assert artifact.exists()
    assert json.loads(artifact.read_text())["equivalent"]
