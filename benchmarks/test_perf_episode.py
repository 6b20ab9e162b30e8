"""(ours) End-to-end episode performance: vectorized control loop +
struct-of-arrays event engine vs their oracles.

Replays full Sinan-attached episodes (fluid simulator + scheduler
decisions) on the production-sized application (social_network, 28
tiers, 300-tree predictor) with every fast path on vs the full oracle
stack, times ``EventDrivenEngine.run`` against ``ReferenceEventEngine``
near saturation, and measures the control-loop overhead of
``scheduler.decide`` over its model components at B=64.  Asserts ≥3x
episode throughput, ≥3x event-engine runs, decide overhead ≤1.5x, and
the bitwise equivalence gate (decision traces, telemetry, event
summaries, RNG state) in both normal and fault-profile episodes.
Results are written to ``BENCH_episode.json`` at the repo root.
"""

from benchmarks import bench
from benchmarks.conftest import run_once


def test_episode_path_speedup(benchmark):
    run_once(benchmark, bench.run_episode_bench)

    written = bench.read_envelope("episode")
    print()
    print(bench.format_envelope(written))
    bench.assert_gates(written, [
        "equal_episode_normal", "equal_episode_chaos", "equal_event_normal",
        "equal_event_overload", "episode_identical_traces",
        "components_bitwise_equal", "n_tiers", "episode_speedup",
        "event_speedup", "component_candidates", "decisions_at_b",
        "decide_overhead_ratio",
    ])
