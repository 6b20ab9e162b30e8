"""Figure 12 — detailed timelines under Sinan for Social Network.

Top row of the paper: constant 250-user load.  Bottom row: diurnal load
peaking at ~300 users.  The three panels per row are offered RPS,
predicted vs measured tail latency (plus the predicted violation
probability), and per-tier CPU allocation; here we print compact series
and check that predictions track the measurements and allocations track
the load.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.core.sinan import SinanManager
from repro.harness.experiment import run_episode
from repro.harness.pipeline import app_spec, make_cluster
from repro.harness.reporting import format_series
from repro.workload.patterns import ConstantLoad, DiurnalLoad


def _run_timeline(predictor, pattern, duration=300, seed=12):
    spec = app_spec("social_network")
    graph = spec.graph_factory()
    manager = SinanManager(predictor, spec.qos, graph)
    cluster = make_cluster(graph, users=0, seed=seed, pattern=pattern)
    log = run_episode(manager, cluster, duration, spec.qos).telemetry
    trace = manager.prediction_trace
    measured = np.array([t["measured_ms"] for t in trace])
    predicted = np.array([t["predicted_ms"] for t in trace])
    p_viol = np.array([t["p_violation"] for t in trace])
    return {
        "rps": log.rps_series(),
        "p99": log.p99_series(),
        "cpu": log.total_cpu_series(),
        "alloc": log.alloc_matrix(),
        "measured": measured,
        "predicted": predicted,
        "p_viol": p_viol,
        "qos_frac": log.qos_meet_fraction(spec.qos.latency_ms),
    }


@pytest.mark.parametrize(
    "scenario,pattern",
    [
        ("constant-250", ConstantLoad(250)),
        ("diurnal-300", DiurnalLoad(base=170, amplitude=130, period=240)),
    ],
)
def test_fig12_timeline(benchmark, scenario, pattern, social_predictor):
    result = run_once(benchmark, lambda: _run_timeline(social_predictor, pattern))

    t = np.arange(len(result["rps"]))
    step = max(len(t) // 12, 1)
    print()
    print(format_series(
        f"Figure 12 [{scenario}] offered load", t[::step], result["rps"][::step],
        "t (s)", "RPS",
    ))
    print(format_series(
        f"Figure 12 [{scenario}] measured p99", t[::step], result["p99"][::step],
        "t (s)", "ms",
    ))
    print(format_series(
        f"Figure 12 [{scenario}] total CPU", t[::step], result["cpu"][::step],
        "t (s)", "cores",
    ))
    print(f"QoS-met fraction: {result['qos_frac']:.3f}")

    valid = np.isfinite(result["predicted"])
    corr = np.corrcoef(result["predicted"][valid], result["measured"][valid])[0, 1]
    print(f"pred-vs-measured correlation: {corr:.2f}")

    # Sinan's prediction tracks the ground truth (paper: "closely
    # follows"), QoS holds, and no allocation pegs at the ceiling for
    # the whole run.
    assert result["qos_frac"] > 0.93
    assert corr > 0.3
    if scenario.startswith("diurnal"):
        # Allocation follows the load cycle: peak-load CPU > trough CPU.
        rps = result["rps"]
        cpu = result["cpu"]
        high = cpu[rps > np.percentile(rps, 80)].mean()
        low = cpu[rps < np.percentile(rps, 20)].mean()
        assert high > low
