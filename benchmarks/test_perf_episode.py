"""(ours) End-to-end episode performance: vectorized control loop +
struct-of-arrays event engine vs their retained reference paths.

Replays full Sinan-attached episodes (fluid simulator + scheduler
decisions) on the production-sized application (social_network, 28
tiers, 300-tree predictor) with every fast path on vs the full
reference stack, times ``EventDrivenEngine.run`` against
``ReferenceEventEngine.run_reference`` near saturation, and measures the control-loop
overhead of ``scheduler.decide`` over its model components at B=64.
Asserts ≥3x episode throughput, ≥3x event-engine runs, decide overhead
≤1.5x, and the bitwise equivalence gate (decision traces, telemetry,
event summaries, RNG state) in both normal and fault-profile episodes.
Results are written to ``BENCH_episode.json`` at the repo root.
"""

import json
from pathlib import Path

from benchmarks.bench import EpisodeBenchConfig, run_episode_bench
from benchmarks.conftest import run_once

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_episode_path_speedup(benchmark):
    config = EpisodeBenchConfig(
        output=str(REPO_ROOT / "BENCH_episode.json"),
    )

    results = run_once(benchmark, lambda: run_episode_bench(config))

    ep = results["episode"]
    ev = results["event_engine"]
    dec = results["decision"]
    eq = results["equivalence"]
    print()
    print(f"episode ({results['n_tiers']} tiers, {ep['intervals']} "
          f"intervals): {ep['fast_ms_per_interval']:.2f}ms fast vs "
          f"{ep['reference_ms_per_interval']:.2f}ms reference "
          f"({ep['speedup']:.1f}x)")
    print(f"event engine ({ev['n_requests']} requests, "
          f"{ev['duration_s']:.0f}s sim): {ev['fast_ms']:.0f}ms fast vs "
          f"{ev['reference_ms']:.0f}ms reference ({ev['speedup']:.1f}x)")
    print(f"decide: {dec['decide_ms']:.2f}ms vs "
          f"{dec['components_sum_ms']:.2f}ms components at "
          f"B={dec['component_candidates']} "
          f"(ratio {dec['overhead_ratio']:.2f})")
    print("equivalence: " + ", ".join(
        f"{k}={'yes' if v else 'NO'}" for k, v in eq.items() if k != "all"
    ))

    # The fast paths are only shippable because they change nothing but
    # wall-clock time: traces, telemetry, event summaries, and RNG
    # state must be identical in normal and fault-profile episodes.
    assert eq["all"], eq
    assert ep["identical_traces"], ep
    assert results["equivalent"], results

    # Acceptance: >= 3x Sinan-attached episode throughput and >= 3x
    # event-engine run() at 28 tiers.
    assert results["n_tiers"] == 28
    assert ep["speedup"] >= 3.0, ep
    assert ev["speedup"] >= 3.0, ev

    # Acceptance: decide() wall time <= 1.5x the sum of its model
    # components at B=64 (was 2.7x before the vectorized control loop).
    assert dec["component_candidates"] == 64
    assert dec["decisions_at_b"] > 0, dec
    assert dec["overhead_ratio"] <= 1.5, dec
    assert dec["components"]["bitwise_equal"], dec

    artifact = REPO_ROOT / "BENCH_episode.json"
    assert artifact.exists()
    written = json.loads(artifact.read_text())
    assert written["equivalent"]
    assert written["episode"]["speedup"] >= 3.0
    assert written["event_engine"]["speedup"] >= 3.0
    assert written["decision"]["overhead_ratio"] <= 1.5
