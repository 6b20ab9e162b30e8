"""(ours) Fan-out performance: persistent warm worker pool + one-time
model broadcast vs the cold per-task-pickle baseline.

Runs a ≥32-episode on-policy collection sweep at ``jobs=cpu_count``
(the paper's Section 4.2 fan-out point) on the cold pre-pool path — a
fresh process pool per call with the full ~300-tree + CNN predictor
pickled into every task — and on the warm shared pool, where the
predictor is published once to ``multiprocessing.shared_memory`` and
each task carries only a slim ``ModelRef``.  Asserts ≥2x sweep
wall-clock, ≥50x smaller per-task payloads, warm-pool reuse across
successive calls, and the bitwise equivalence contract: pooled results
equal ``jobs=1`` and the cold path, in normal and chaos fault-profile
episodes.  Results are written to ``BENCH_sweep.json`` at the repo root.
"""

import json
from pathlib import Path

from benchmarks.bench import SweepBenchConfig, run_sweep_bench
from benchmarks.conftest import run_once

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_fanout_sweep_speedup(benchmark):
    config = SweepBenchConfig(
        output=str(REPO_ROOT / "BENCH_sweep.json"),
    )

    results = run_once(benchmark, lambda: run_sweep_bench(config))

    th = results["throughput"]
    pl = results["payload"]
    ru = results["reuse"]
    eq = results["equivalence"]
    print()
    print(f"sweep ({th['episodes']} episodes x {th['seconds_per_episode']} "
          f"intervals, {th['workers']} workers): {th['warm_s']:.2f}s warm "
          f"vs {th['baseline_cold_s']:.2f}s cold ({th['speedup']:.1f}x)")
    print(f"payload: {pl['warm_task_bytes']:,}B vs "
          f"{pl['cold_task_bytes']:,}B per task ({pl['reduction']:.0f}x)")
    print(f"reuse: {ru['one_warm_pool_s']:.2f}s warm vs "
          f"{ru['two_cold_pools_s']:.2f}s cold over two sweeps")
    print("equivalence: " + ", ".join(
        f"{k}={'yes' if v else 'NO'}" for k, v in eq.items() if k != "all"
    ))

    # The warm pool is only shippable because it changes nothing but
    # wall-clock time: pooled results must equal jobs=1 and the cold
    # per-task path, in normal and fault-profile episodes.
    assert eq["all"], eq
    assert th["identical_results"], th
    assert ru["identical_results"], ru
    assert results["equivalent"], results

    # Acceptance: >= 2x sweep wall-clock on a >= 32-episode collection
    # sweep at jobs=cpu_count, and >= 50x smaller per-task payloads.
    assert th["episodes"] >= 32
    assert th["speedup"] >= 2.0, th
    assert pl["reduction"] >= 50.0, pl
    assert pl["broadcast_bytes_once"] > 1_000_000, pl

    # The warm pool actually persists: the second call on it must
    # report reuse with zero new broadcast publishes.
    assert th["pool_reused"], th
    assert ru["second_call_reused"], ru
    assert ru["second_call_publishes"] == 0, ru

    artifact = REPO_ROOT / "BENCH_sweep.json"
    assert artifact.exists()
    written = json.loads(artifact.read_text())
    assert written["equivalent"]
    assert written["throughput"]["speedup"] >= 2.0
    assert written["payload"]["reduction"] >= 50.0
