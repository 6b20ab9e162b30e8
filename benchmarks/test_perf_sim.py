"""(ours) Simulation-path performance: batched-tick fast path vs the
per-tick reference loop.

Times full episodes on the production-sized application (social_network,
28 tiers) at 20 ticks per decision interval, asserting the fast path is
bitwise-equivalent to ``run_interval_reference`` across normal, bursty,
and overload scenarios and at least 5x faster over a 300-interval
episode.  Results are written to ``BENCH_sim.json`` at the repo root.
"""

import json
from pathlib import Path

from benchmarks.bench import SimBenchConfig, run_sim_bench
from benchmarks.conftest import run_once

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_sim_path_speedup(benchmark):
    config = SimBenchConfig(
        intervals=300,
        repeats=3,
        output=str(REPO_ROOT / "BENCH_sim.json"),
    )

    results = run_once(benchmark, lambda: run_sim_bench(config))

    ep, eq = results["episode"], results["equivalence"]
    print()
    print(f"sim episode ({results['n_tiers']} tiers, "
          f"{results['ticks_per_interval']} ticks/interval, "
          f"{ep['intervals']} intervals): "
          f"{ep['fast_ms_per_interval']:.3f}ms fast vs "
          f"{ep['reference_ms_per_interval']:.3f}ms reference "
          f"({ep['speedup']:.1f}x)")
    print("equivalence: " + ", ".join(
        f"{k}={'yes' if v else 'NO'}" for k, v in eq.items() if k != "all"
    ))

    # The fast path is only shippable because it changes nothing but
    # wall-clock time: every scenario must be bitwise-identical.
    assert eq["all"], eq

    # Acceptance: >= 5x episode throughput at 28 tiers, 300 intervals.
    assert results["n_tiers"] == 28
    assert ep["intervals"] >= 300
    assert ep["speedup"] >= 5.0, ep

    artifact = REPO_ROOT / "BENCH_sim.json"
    assert artifact.exists()
    written = json.loads(artifact.read_text())
    assert written["equivalence"]["all"]
    assert written["episode"]["speedup"] >= 5.0
