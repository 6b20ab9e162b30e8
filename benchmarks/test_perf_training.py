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

from benchmarks import bench
from benchmarks.conftest import run_once


def test_training_path_speedup(benchmark):
    run_once(benchmark, bench.run_training_bench)

    written = bench.read_envelope("training")
    print()
    print(bench.format_envelope(written))
    # The fast paths must be drop-in — identical trees, matching loss
    # trajectories, end-to-end model quality within tolerance — and
    # >= 4x end to end (and for the dominant tree fit on its own) at
    # >= 200 trees and >= 5 CNN epochs.
    bench.assert_gates(written, [
        "n_trees", "cnn_epochs", "tree_structures_equal",
        "tree_margins_bitwise_equal", "cnn_losses_close",
        "end_to_end_quality_close", "end_to_end_speedup", "tree_fit_speedup",
    ])
