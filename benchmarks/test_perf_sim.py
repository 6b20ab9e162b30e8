"""(ours) Simulation-path performance: batched-tick fast path vs the
per-tick reference loop.

Times full episodes on the production-sized application (social_network,
28 tiers) at 20 ticks per decision interval, asserting the fast path is
bitwise-equivalent to the per-tick oracle across normal, bursty, and
overload scenarios and at least 5x faster over a 300-interval episode.
Results are written to ``BENCH_sim.json`` at the repo root.
"""

from benchmarks import bench
from benchmarks.conftest import run_once


def test_sim_path_speedup(benchmark):
    run_once(benchmark, bench.run_sim_bench)

    written = bench.read_envelope("sim")
    print()
    print(bench.format_envelope(written))
    # Every scenario bitwise-identical, and >= 5x episode throughput at
    # 28 tiers over >= 300 intervals.
    bench.assert_gates(written, [
        "equal_normal", "equal_overload", "equal_bursty",
        "n_tiers", "intervals", "speedup",
    ])
