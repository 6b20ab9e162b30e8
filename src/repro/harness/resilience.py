"""Resilience scenarios: fault profiles x managers, with recovery metrics.

The paper's evaluation never stresses the scheduler's safety mechanism
(Section 4.3's trust counter and unpredicted-violation recovery); this
harness does.  :func:`run_resilience_episode` runs one fault-injected
episode through :func:`~repro.harness.experiment.run_episode` and
measures, against ground-truth telemetry:

* QoS-meet fraction and mean/max CPU (the usual Figure 11 metrics),
* recovery time after each injected physics fault (intervals from fault
  onset until the p99 is back under QoS),
* the scheduler's safety counters — mispredictions, trust state, and
  max-allocation fallbacks (including predictor failures),
* how much of the manager's telemetry view was dropped or corrupted.

:func:`sweep_resilience` fans the (profile x manager) grid out over the
parallel episode harness and :func:`format_resilience_report` renders
the resulting table.  Results are bit-identical for a fixed seed
regardless of ``jobs``.  Fanned-out grids run on the process-wide warm
pool (:mod:`repro.harness.pool`): the sinan cells' predictor is
broadcast once via shared memory instead of being pickled into every
(profile x manager) task, and repeated sweeps reuse live workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.manager import Manager
from repro.core.qos import QoSTarget
from repro.harness.experiment import run_episode
from repro.harness.parallel import EpisodeTask, run_episodes
from repro.harness.reporting import format_table
from repro.sim.cluster import ClusterSimulator

#: Intervals past a fault's end still attributed to it when looking for
#: the first violation (queues built during the fault drain late).
_GRACE_INTERVALS = 5


@dataclass
class ResilienceResult:
    """One manager's episode under one fault profile."""

    manager_name: str
    profile: str
    users: float
    qos_ms: float
    duration: int
    qos_fraction: float
    mean_total_cpu: float
    max_total_cpu: float
    n_faults: int
    """Injected physics faults that started inside the episode."""

    recovery_times: list[float] = field(default_factory=list)
    """Per-fault recovery time in intervals (0 = QoS never lost)."""

    mispredictions: int | None = None
    trusted: bool | None = None
    fallbacks: int | None = None
    predictor_failures: int | None = None
    dropped_intervals: int = 0
    corrupted_intervals: int = 0

    @property
    def mean_recovery(self) -> float:
        """Mean recovery time across faults (0.0 when no faults fired)."""
        if not self.recovery_times:
            return 0.0
        return float(np.mean(self.recovery_times))

    def row(self) -> list[str]:
        def opt(value) -> str:
            return "-" if value is None else str(value)

        return [
            self.profile,
            self.manager_name,
            f"{self.qos_fraction:.3f}",
            f"{self.mean_total_cpu:.1f}",
            str(self.n_faults),
            f"{self.mean_recovery:.1f}",
            opt(self.mispredictions),
            opt(self.fallbacks),
            f"{self.dropped_intervals}/{self.corrupted_intervals}",
        ]


def recovery_time(
    p99: np.ndarray,
    qos_ms: float,
    start_idx: int,
    fault_intervals: int,
) -> float:
    """Intervals from a fault's onset until QoS is met again.

    Looks for the first violating interval within the fault window (plus
    a short grace for queue drain); returns 0 when the fault never broke
    QoS, otherwise the index distance from onset to the first interval
    back under the target (episode end if it never recovers).
    """
    n = len(p99)
    if start_idx >= n:
        return 0.0
    horizon = min(n, start_idx + fault_intervals + _GRACE_INTERVALS)
    violating = np.flatnonzero(p99[start_idx:horizon] > qos_ms)
    if violating.size == 0:
        return 0.0
    first_bad = start_idx + int(violating[0])
    recovered = np.flatnonzero(p99[first_bad:] <= qos_ms)
    end = first_bad + int(recovered[0]) if recovered.size else n
    return float(end - start_idx)


def run_resilience_episode(
    manager: Manager,
    cluster: ClusterSimulator,
    duration: int,
    qos: QoSTarget,
    warmup: int = 10,
    recorder=None,
) -> ResilienceResult:
    """Run one (possibly fault-injected) episode and score its resilience.

    The episode itself is :func:`~repro.harness.experiment.run_episode`;
    this adds per-fault recovery times from the ground-truth telemetry,
    the manager's safety counters and the injector's telemetry-fault
    counts.  Works for fault-free clusters too (``n_faults`` is then 0,
    the profile ``"none"``), so the same scorer can baseline a manager
    with and without faults.

    ``recorder`` attaches a :class:`repro.obs.Recorder` for the episode
    (default off; the episode is then bitwise-identical).
    """
    episode = run_episode(
        manager, cluster, duration, qos, warmup=warmup, recorder=recorder
    )
    log = episode.telemetry  # ground truth, never the corrupted view
    injector = cluster.faults

    recovery_times: list[float] = []
    if injector is not None:
        p99 = np.array([qos.latency_of(s) for s in log])
        start_time = log[0].time - 1.0  # interval i covers (t0+i, t0+i+1]
        for event in injector.physics_events(until=log.latest.time):
            start_idx = max(int(np.floor(event.start - start_time)), 0)
            recovery_times.append(
                recovery_time(
                    p99, qos.latency_ms, start_idx,
                    max(int(np.ceil(event.duration)), 1),
                )
            )

    return ResilienceResult(
        manager_name=episode.manager_name,
        profile=injector.profile.name if injector else "none",
        users=episode.users,
        qos_ms=episode.qos_ms,
        duration=duration,
        qos_fraction=episode.qos_fraction,
        mean_total_cpu=episode.mean_total_cpu,
        max_total_cpu=episode.max_total_cpu,
        n_faults=len(recovery_times),
        recovery_times=recovery_times,
        mispredictions=getattr(manager, "mispredictions", None),
        trusted=getattr(manager, "trusted", None),
        fallbacks=getattr(manager, "fallbacks", None),
        predictor_failures=getattr(manager, "predictor_failures", None),
        dropped_intervals=injector.dropped_intervals if injector else 0,
        corrupted_intervals=injector.corrupted_intervals if injector else 0,
    )


def _resilience_episode(
    app: str,
    manager_name: str,
    profile_name: str | None,
    users: float,
    duration: int,
    seed: int,
    warmup: int,
    predictor,
) -> ResilienceResult:
    """One (profile, manager) cell — picklable worker.

    ``profile_name=None`` is the fault-free cell, which is what each
    (manager, load) cell of ``repro sweep`` runs.
    """
    from repro.harness.pipeline import app_spec, make_cluster, make_manager

    spec = app_spec(app)
    graph = spec.graph_factory()
    manager = make_manager(manager_name, graph, spec.qos, predictor)
    cluster = make_cluster(
        graph, users, seed=seed, fault_profile=profile_name,
    )
    return run_resilience_episode(
        manager, cluster, duration, spec.qos, warmup=warmup
    )


def sweep_resilience(
    app: str,
    profiles: list[str],
    manager_names: list[str],
    users: float,
    duration: int,
    seed: int = 0,
    warmup: int = 10,
    predictor=None,
    jobs: int | None = None,
    progress=None,
    recorder=None,
) -> list[ResilienceResult]:
    """Run every (profile, manager) cell, serially or over processes.

    Every manager faces the same fault schedule and workload draw within
    a profile (the cluster/injector seed depends only on the profile),
    making each column a paired comparison.  Results come back in grid
    order; a cell that failed even after the harness retry is omitted.
    """
    tasks = []
    for p_idx, profile_name in enumerate(profiles):
        for manager_name in manager_names:
            tasks.append(EpisodeTask(
                index=len(tasks),
                label=f"{profile_name}/{manager_name}",
                fn=_resilience_episode,
                kwargs=dict(
                    app=app,
                    manager_name=manager_name,
                    profile_name=profile_name,
                    users=users,
                    duration=duration,
                    seed=seed + 1009 * p_idx,
                    warmup=warmup,
                    predictor=predictor if manager_name == "sinan" else None,
                ),
            ))
    summary = run_episodes(tasks, jobs=jobs, progress=progress, recorder=recorder)
    summary.raise_if_no_results()
    return summary.results


def format_resilience_report(results: list[ResilienceResult]) -> str:
    """Render resilience results as the harness's fixed-width table."""
    headers = [
        "Profile", "Manager", "P(QoS)", "meanCPU", "faults",
        "recov(s)", "mispred", "fallback", "drop/corrupt",
    ]
    return format_table(
        headers,
        [r.row() for r in results],
        title="Resilience under injected faults "
              "(QoS/CPU scored on ground-truth telemetry)",
    )


__all__ = [
    "ResilienceResult",
    "recovery_time",
    "run_resilience_episode",
    "sweep_resilience",
    "format_resilience_report",
]
