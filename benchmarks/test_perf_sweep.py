"""(ours) Fan-out performance: persistent warm worker pool + one-time
model broadcast vs the cold per-task-pickle baseline.

Runs a ≥32-episode on-policy collection sweep at ``jobs=cpu_count``
(the paper's Section 4.2 fan-out point) on the cold pre-pool path — a
fresh process pool per call with the full ~300-tree + CNN predictor
pickled into every task — and on the warm shared pool, where the
predictor is published once to ``multiprocessing.shared_memory`` and
each task carries only a slim ``ModelRef``.  Asserts ≥2x sweep
wall-clock, ≥50x smaller per-task payloads, warm-pool reuse across
successive calls (zero new broadcast publishes), and the bitwise
equivalence contract: pooled results equal ``jobs=1`` and the cold
path, in normal and chaos fault-profile episodes.  Results are written
to ``BENCH_sweep.json`` at the repo root.
"""

from benchmarks import bench
from benchmarks.conftest import run_once


def test_fanout_sweep_speedup(benchmark):
    run_once(benchmark, bench.run_sweep_bench)

    written = bench.read_envelope("sweep")
    print()
    print(bench.format_envelope(written))
    bench.assert_gates(written, [
        "equal_collection_serial_vs_warm", "equal_collection_serial_vs_cold",
        "equal_fault_chaos_serial_vs_warm", "throughput_identical_results",
        "reuse_identical_results", "episodes", "speedup", "payload_reduction",
        "broadcast_bytes_once", "pool_reused", "second_call_reused",
        "second_call_publishes",
    ])
