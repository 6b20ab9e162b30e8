"""(ours) Multi-tenant contention: credit arbitration vs static partitions.

Runs the standard 3-tenant contention scenario (Social Network, Hotel
Reservation, and Media Service with staggered load peaks) on one shared
cluster budget, twice per seed: once under the
:class:`~repro.tenancy.arbiter.CreditArbiter` and once under equal
static partitioning (the quota-carved baseline).  The per-tenant
scheduler is the elastic QoS-meeting autoscaler — the arbitration layer
is manager-agnostic, and the autoscaler's load-following demands make
the credit-vs-static comparison meaningful at every pipeline budget
(``repro multitenant --manager sinan`` runs the same scenario with
per-tenant Sinan schedulers; see EXPERIMENTS.md for why the smoke gate
pins the autoscaler).

Asserts the subsystem's acceptance gate — credit arbitration meets or
beats static partitioning on aggregate QoS attainment at equal or lower
mean cluster CPU, with real contention occurring — and the determinism
contract: the pooled (``jobs=2``) sweep is bitwise identical to the
serial one, tenant by tenant.  Results are written to
``BENCH_multitenant.json`` at the repo root (the same artifact
``repro multitenant`` summarizes).
"""

import json

import numpy as np

from benchmarks.conftest import episode_seconds, n_seeds, run_once
from benchmarks.bench import resolve_output
from repro.harness.multitenant import (
    default_tenant_specs,
    format_multitenant_report,
    sweep_multitenant,
)

#: Shared cluster budget (cores).  Sized so the three staggered peaks
#: overlap pairwise: tight enough to contend, wide enough that credit
#: arbitration can still cover every tenant's QoS.
CLUSTER_CPU = 240.0


def _fingerprints(results):
    """Bitwise per-tenant trace identity for a sweep's results."""
    return [
        (r.arbiter, r.seed, t.tenant,
         t.telemetry.latency_matrix().tobytes(),
         t.telemetry.alloc_matrix().tobytes(),
         t.telemetry.rps_series().tobytes())
        for r in results for t in r.tenants
    ]


def _arm_mean(results, arm, metric):
    return float(np.mean([getattr(r, metric) for r in results
                          if r.arbiter == arm]))


def test_credit_arbitration_beats_static_partitioning(benchmark):
    specs = default_tenant_specs(manager="autoscale-cons")
    # The scenario's last load step lands at t=130, so never run shorter
    # than 150 intervals regardless of REPRO_EPISODE_SECONDS.
    duration = max(episode_seconds(), 150)
    warmup = min(40, duration // 4)
    seeds = list(range(n_seeds()))

    def _run():
        serial = sweep_multitenant(
            specs, CLUSTER_CPU, duration, seeds=seeds, warmup=warmup, jobs=1,
        )
        pooled = sweep_multitenant(
            specs, CLUSTER_CPU, duration, seeds=seeds, warmup=warmup, jobs=2,
        )
        return serial, pooled

    serial, pooled = run_once(benchmark, _run)

    print()
    print(format_multitenant_report(serial))

    credit = [r for r in serial if r.arbiter == "credit"]
    credit_qos = _arm_mean(serial, "credit", "aggregate_qos_fraction")
    static_qos = _arm_mean(serial, "static", "aggregate_qos_fraction")
    credit_cpu = _arm_mean(serial, "credit", "mean_cluster_cpu")
    static_cpu = _arm_mean(serial, "static", "mean_cluster_cpu")
    contended = float(np.mean([r.contended_fraction for r in credit]))
    pooled_equal = _fingerprints(serial) == _fingerprints(pooled)
    qos_ok = credit_qos >= static_qos - 1e-9
    cpu_ok = credit_cpu <= static_cpu + 1e-6
    print(f"gate: credit P(QoS) {credit_qos:.3f} vs static {static_qos:.3f}, "
          f"mean cluster CPU {credit_cpu:.1f} vs {static_cpu:.1f} cores "
          f"(budget {CLUSTER_CPU:.0f}, contended {contended:.0%}) -> "
          f"{'OK' if qos_ok and cpu_ok else 'REGRESSION'}")

    summary = {
        "budget_cpu": CLUSTER_CPU,
        "duration": duration,
        "warmup": warmup,
        "seeds": seeds,
        "manager": "autoscale-cons",
        "arms": {
            arm: {
                "aggregate_qos_fraction": _arm_mean(
                    serial, arm, "aggregate_qos_fraction"),
                "mean_cluster_cpu": _arm_mean(serial, arm, "mean_cluster_cpu"),
                "max_cluster_cpu": _arm_mean(serial, arm, "max_cluster_cpu"),
            }
            for arm in ("credit", "static")
        },
        "contended_fraction": contended,
        "mode_counts": {str(r.seed): r.mode_counts for r in credit},
        "tenants": [
            {
                "arbiter": r.arbiter,
                "seed": r.seed,
                "tenant": t.tenant,
                "app": t.app,
                "qos_fraction": t.qos_fraction,
                "mean_total_cpu": t.mean_total_cpu,
                "max_total_cpu": t.max_total_cpu,
            }
            for r in serial for t in r.tenants
        ],
        "gate": {
            "qos_ok": qos_ok,
            "cpu_ok": cpu_ok,
            "contended": contended > 0,
            "pooled_bitwise_equal": pooled_equal,
        },
    }
    artifact = resolve_output("BENCH_multitenant.json")
    artifact.write_text(json.dumps(summary, indent=2))

    # Determinism contract: fanning the same (arm, seed) grid over the
    # warm worker pool must not change a single bit of any tenant trace.
    assert pooled_equal

    # The scenario must actually exercise the arbiter — staggered peaks
    # overlapping on a finite budget, not three isolated tenants.
    assert contended > 0, [r.contended_fraction for r in credit]

    # Acceptance gate: credit-based arbitration covers the cluster's
    # QoS at least as well as equal static partitions, without burning
    # more CPU than the carved-up baseline does.
    assert qos_ok, (credit_qos, static_qos)
    assert cpu_ok, (credit_cpu, static_cpu)

    written = json.loads(artifact.read_text())
    assert all(written["gate"].values()), written["gate"]
