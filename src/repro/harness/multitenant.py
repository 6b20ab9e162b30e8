"""Multi-tenant episodes: N apps sharing one cluster budget.

:func:`run_multitenant_episode` steps a set of
:class:`~repro.tenancy.tenant.TenantSpec`\\ s in lockstep against one
arbiter and scores each tenant on the usual Figure 11 metrics plus the
cluster-wide aggregate.  Two arms are built from the same specs:

* ``credit`` — every tenant keeps its own adaptive scheduler and the
  :class:`~repro.tenancy.arbiter.CreditArbiter` resolves contention
  against the shared budget;
* ``static`` — the cluster is carved into equal fixed slices
  (``budget / n``), each statically provisioned: the tenant's manager
  is replaced by the deploy-time static allocator and its platform
  ceiling pinned to the slice, which is what a quota-carved cluster
  without elastic reclaim burns.

:func:`sweep_multitenant` fans (arm x seed) episodes over the parallel
harness; every episode is independently seeded, so results are
bit-identical to the serial run for any ``jobs`` fan-out (asserted by
``benchmarks/test_multitenant.py`` and the tenancy test suite).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.harness.experiment import score_window
from repro.harness.parallel import EpisodeTask, run_episodes
from repro.harness.reporting import format_table
from repro.sim.telemetry import TelemetryLog
from repro.tenancy.arbiter import CreditArbiter, StaticPartitionArbiter
from repro.tenancy.credit import CreditConfig
from repro.tenancy.simulator import MultiTenantSimulator
from repro.tenancy.tenant import TenantSpec, build_tenant
from repro.workload.patterns import StepLoad

#: Arms every sweep/benchmark compares.
ARMS = ("credit", "static")

#: Offset between consecutive tenants' base seeds (one multi-tenant
#: episode consumes several independent streams).
_TENANT_SEED_STRIDE = 7919

#: Offset of the arbiter's tie-break stream from the episode seed.
_ARBITER_SEED_OFFSET = 555


@dataclass
class TenantResult:
    """One tenant's score inside a multi-tenant episode."""

    tenant: str
    app: str
    manager_name: str
    qos_ms: float
    qos_fraction: float
    mean_total_cpu: float
    max_total_cpu: float
    telemetry: TelemetryLog

    def row(self, arbiter: str, seed: int) -> list[str]:
        return [
            arbiter,
            str(seed),
            self.tenant,
            self.app,
            f"{self.qos_fraction:.3f}",
            f"{self.mean_total_cpu:.1f}",
            f"{self.max_total_cpu:.1f}",
        ]


@dataclass
class MultiTenantResult:
    """One full multi-tenant episode (all tenants, one arbiter)."""

    arbiter: str
    budget_cpu: float
    duration: int
    warmup: int
    seed: int
    contended_fraction: float
    mode_counts: dict[str, int] = field(default_factory=dict)
    tenants: list[TenantResult] = field(default_factory=list)
    max_cluster_cpu: float = 0.0
    """Peak of the summed per-interval cluster allocation (post-warmup)."""

    @property
    def aggregate_qos_fraction(self) -> float:
        """Mean per-tenant QoS attainment — each tenant counts equally."""
        return float(np.mean([t.qos_fraction for t in self.tenants]))

    @property
    def mean_cluster_cpu(self) -> float:
        """Sum of the tenants' mean allocated CPU (cores)."""
        return float(sum(t.mean_total_cpu for t in self.tenants))

    def row(self) -> list[str]:
        modes = ",".join(
            f"{m}:{n}" for m, n in sorted(self.mode_counts.items())
        )
        return [
            self.arbiter,
            str(self.seed),
            f"{self.aggregate_qos_fraction:.3f}",
            f"{self.mean_cluster_cpu:.1f}",
            f"{self.max_cluster_cpu:.1f}",
            f"{self.budget_cpu:.0f}",
            f"{self.contended_fraction:.2f}",
            modes,
        ]


def default_tenant_specs(manager: str = "sinan") -> list[TenantSpec]:
    """The standard 3-tenant contention scenario.

    Three heterogeneous apps with staggered load peaks, so consecutive
    pairs of tenants peak together and the cluster sees sustained
    contention windows without being permanently overloaded.
    """
    return [
        TenantSpec(
            "social", "social_network",
            StepLoad(((0, 150), (40, 420), (90, 150))),
            manager=manager,
        ),
        TenantSpec(
            "hotel", "hotel_reservation",
            StepLoad(((0, 1200), (60, 3200), (110, 1200))),
            manager=manager,
        ),
        TenantSpec(
            "media", "media_service",
            StepLoad(((0, 250), (80, 650), (130, 250))),
            manager=manager,
        ),
    ]


def run_multitenant_episode(
    specs: list[TenantSpec],
    budget_cpu: float,
    duration: int,
    seed: int = 0,
    arbiter: str = "credit",
    warmup: int = 10,
    predictors: dict | None = None,
    pipeline_budget=None,
    credit_config: CreditConfig | None = None,
    jobs: int | None = None,
    recorder=None,
) -> MultiTenantResult:
    """Run one lockstep multi-tenant episode and score it.

    ``predictors`` maps app name to a trained predictor for ``sinan``
    tenants (missing entries are trained/cached on demand).  The
    ``static`` arm replaces every tenant's manager with the deploy-time
    static allocator and pins each platform to the equal slice — see
    the module docstring for why that is the baseline.
    """
    if duration <= warmup:
        raise ValueError("duration must exceed warmup")
    if arbiter not in ARMS:
        raise ValueError(f"arbiter must be one of {ARMS}, got {arbiter!r}")
    predictors = predictors or {}

    if arbiter == "static":
        slice_cpu = budget_cpu / len(specs)
        specs = [dataclasses.replace(s, manager="static") for s in specs]
        per_tenant_cpu = [slice_cpu] * len(specs)
    else:
        per_tenant_cpu = [budget_cpu] * len(specs)

    tenants = [
        build_tenant(
            spec,
            budget_cpu=per_tenant_cpu[i],
            seed=seed + _TENANT_SEED_STRIDE * (i + 1),
            predictor=predictors.get(spec.app),
            pipeline_budget=pipeline_budget,
            jobs=jobs,
        )
        for i, spec in enumerate(specs)
    ]
    if arbiter == "static":
        arb = StaticPartitionArbiter(budget_cpu, len(tenants))
    else:
        arb = CreditArbiter(
            budget_cpu,
            {t.name: t.qos.latency_ms for t in tenants},
            config=credit_config,
            seed=seed + _ARBITER_SEED_OFFSET,
        )
    sim = MultiTenantSimulator(tenants, arb, recorder=recorder)
    decisions = sim.run(duration)

    scored = decisions[warmup:]
    tenant_results = []
    cluster_cpu = np.zeros(duration - warmup)
    for t in tenants:
        log = t.cluster.telemetry
        qos_fraction, mean_cpu, max_cpu = score_window(log, t.qos, warmup)
        cluster_cpu += log.total_cpu_series()[warmup:]
        tenant_results.append(TenantResult(
            tenant=t.name,
            app=t.spec.app,
            manager_name=t.manager.name,
            qos_ms=t.qos.latency_ms,
            qos_fraction=qos_fraction,
            mean_total_cpu=mean_cpu,
            max_total_cpu=max_cpu,
            telemetry=log,
        ))
    return MultiTenantResult(
        arbiter=arbiter,
        budget_cpu=budget_cpu,
        duration=duration,
        warmup=warmup,
        seed=seed,
        contended_fraction=float(np.mean([d.contended for d in scored])),
        mode_counts=dict(Counter(d.mode for d in scored)),
        tenants=tenant_results,
        max_cluster_cpu=float(cluster_cpu.max()),
    )


def sweep_multitenant(
    specs: list[TenantSpec],
    budget_cpu: float,
    duration: int,
    seeds: list[int] | None = None,
    arms: tuple[str, ...] = ARMS,
    warmup: int = 10,
    predictors: dict | None = None,
    credit_config: CreditConfig | None = None,
    pipeline_budget=None,
    jobs: int | None = None,
    progress=None,
    recorder=None,
) -> list[MultiTenantResult]:
    """Run every (arm, seed) episode, serially or over worker processes.

    Both arms share each seed, so every seed is a paired comparison of
    credit arbitration against static partitioning on identical
    workload draws.  Episodes are independently seeded and fan out on
    the process-wide warm pool; results come back in grid order and
    are bit-identical to the serial run.
    """
    seeds = seeds if seeds is not None else [0]
    tasks = []
    for s in seeds:
        for arm in arms:
            tasks.append(EpisodeTask(
                index=len(tasks),
                label=f"multitenant[{arm},seed={s}]",
                fn=run_multitenant_episode,
                kwargs=dict(
                    specs=specs,
                    budget_cpu=budget_cpu,
                    duration=duration,
                    seed=s,
                    arbiter=arm,
                    warmup=warmup,
                    predictors=predictors if arm == "credit" else None,
                    credit_config=credit_config,
                    pipeline_budget=pipeline_budget,
                ),
            ))
    summary = run_episodes(tasks, jobs=jobs, progress=progress, recorder=recorder)
    summary.raise_if_no_results()
    return summary.results


def format_multitenant_report(results: list[MultiTenantResult]) -> str:
    """Cluster-level and per-tenant tables for a multi-tenant sweep."""
    cluster = format_table(
        ["Arbiter", "seed", "P(QoS)", "meanCPU", "maxCPU", "budget",
         "contended", "modes"],
        [r.row() for r in results],
        title="Shared cluster: aggregate QoS attainment and CPU "
              "(credit arbitration vs equal static partitions)",
    )
    per_tenant = format_table(
        ["Arbiter", "seed", "Tenant", "App", "P(QoS)", "meanCPU", "maxCPU"],
        [t.row(r.arbiter, r.seed) for r in results for t in r.tenants],
        title="Per-tenant breakdown",
    )
    return f"{cluster}\n\n{per_tenant}"


__all__ = [
    "ARMS",
    "TenantResult",
    "MultiTenantResult",
    "default_tenant_specs",
    "run_multitenant_episode",
    "sweep_multitenant",
    "format_multitenant_report",
]
