"""Resilience under injected faults — this reproduction's own experiment.

The paper ships Sinan's safety mechanism (Section 4.3: unpredicted-
violation recovery, trust counter, max-allocation fallback) but its
deployments never stressed it. This benchmark does: under replica-crash
storms and telemetry corruption, Sinan must (a) complete every episode
without raising, (b) visibly exercise the safety paths, and (c) beat a
static baseline pinned at Sinan's *own* mean per-tier allocation — the
fairest possible comparison, since both spend the same CPU and face the
same fault schedule, but only Sinan can react.
"""

import numpy as np
import pytest

from benchmarks.conftest import episode_seconds, n_seeds, run_once, warmup_seconds
from repro.core.manager import StaticManager
from repro.core.sinan import SinanManager
from repro.harness.pipeline import app_spec, make_cluster
from repro.harness.resilience import format_resilience_report, run_resilience_episode

PROFILES = ("crash-storm", "telemetry-dropout")
USERS = 350.0  # near the social-network load knee: faults must matter


def _paired_cell(profile, predictor, seed, duration, warmup):
    """One Sinan episode plus a static baseline at Sinan's mean alloc,
    both under the same fault schedule and workload draw."""
    spec = app_spec("social_network")
    graph = spec.graph_factory()

    sinan = SinanManager(predictor, spec.qos, graph)
    cluster = make_cluster(
        graph, USERS, seed=seed, fault_profile=profile, fault_seed=seed
    )
    sinan_result = run_resilience_episode(
        sinan, cluster, duration, spec.qos, warmup=warmup
    )

    mean_alloc = cluster.telemetry.alloc_matrix()[warmup:].mean(axis=0)
    baseline_cluster = make_cluster(
        graph, USERS, seed=seed, fault_profile=profile, fault_seed=seed
    )
    static_result = run_resilience_episode(
        StaticManager(mean_alloc), baseline_cluster, duration, spec.qos,
        warmup=warmup,
    )
    return sinan_result, static_result


def _sweep(predictor):
    duration = episode_seconds()
    warmup = warmup_seconds()
    cells = {}
    for profile in PROFILES:
        cells[profile] = [
            _paired_cell(profile, predictor, seed, duration, warmup)
            for seed in range(n_seeds())
        ]
    return cells


def test_resilience_faults(benchmark, social_predictor):
    cells = run_once(benchmark, lambda: _sweep(social_predictor))

    flat = [r for pairs in cells.values() for pair in pairs for r in pair]
    print()
    print(format_resilience_report(flat))

    sinan_all = [s for pairs in cells.values() for s, _ in pairs]
    static_all = [t for pairs in cells.values() for _, t in pairs]

    # (a) Every fault-injected episode completed: the full grid is here,
    # with finite metrics.
    assert len(sinan_all) == len(PROFILES) * n_seeds()
    for result in sinan_all + static_all:
        assert np.isfinite(result.qos_fraction)
        assert np.isfinite(result.mean_total_cpu)

    # (b) The safety paths actually fired somewhere in the grid: either
    # the unpredicted-violation recovery (mispredictions) or the
    # max-allocation fallback.
    safety_hits = sum(s.mispredictions + s.fallbacks for s in sinan_all)
    print(f"safety-path activations (mispredictions + fallbacks): {safety_hits}")
    assert safety_hits >= 1

    # Telemetry corruption was really seen by the manager.
    dropout_sinan = [s for s, _ in cells["telemetry-dropout"]]
    assert all(s.dropped_intervals > 0 for s in dropout_sinan)
    assert all(s.corrupted_intervals > 0 for s in dropout_sinan)

    # (c) Graceful degradation beats a same-CPU static baseline: per
    # profile, Sinan's mean QoS-meet fraction is at least the static
    # baseline's, and strictly better somewhere in the grid.
    for profile, pairs in cells.items():
        sinan_qos = float(np.mean([s.qos_fraction for s, _ in pairs]))
        static_qos = float(np.mean([t.qos_fraction for _, t in pairs]))
        sinan_cpu = float(np.mean([s.mean_total_cpu for s, _ in pairs]))
        static_cpu = float(np.mean([t.mean_total_cpu for _, t in pairs]))
        print(f"{profile}: Sinan P(QoS) {sinan_qos:.3f} @ {sinan_cpu:.0f} cores "
              f"vs static {static_qos:.3f} @ {static_cpu:.0f} cores")
        # Equal mean CPU by construction (static pinned at Sinan's mean).
        assert abs(static_cpu - sinan_cpu) / sinan_cpu < 0.08
        assert sinan_qos >= static_qos - 1e-9
    margins = [
        s.qos_fraction - t.qos_fraction
        for pairs in cells.values() for s, t in pairs
    ]
    assert max(margins) > 0.0
