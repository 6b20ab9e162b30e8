"""Deployment episodes: one manager driving one cluster.

Mirrors the paper's evaluation loop (Section 5.3): the manager is
queried once per 1 s interval; the episode records the aggregate CPU
allocation over time and the fraction of intervals meeting QoS — the
three panels of paper Figure 11 (mean CPU, max CPU, P(meet QoS)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.manager import Manager
from repro.core.qos import QoSTarget
from repro.harness.parallel import EpisodeTask, run_episodes
from repro.obs.recorder import NULL_RECORDER, attach_recorder
from repro.sim.cluster import ClusterSimulator
from repro.sim.telemetry import TelemetryLog


@dataclass
class EpisodeResult:
    """Summary of one manager/load episode."""

    manager_name: str
    users: float
    qos_ms: float
    mean_total_cpu: float
    max_total_cpu: float
    qos_fraction: float
    duration: int
    telemetry: TelemetryLog

    def row(self) -> list:
        """Table row for reporting."""
        return [
            self.manager_name,
            f"{self.users:g}",
            f"{self.mean_total_cpu:.1f}",
            f"{self.max_total_cpu:.1f}",
            f"{self.qos_fraction:.3f}",
        ]


def score_window(
    log: TelemetryLog, qos: QoSTarget, start: int
) -> tuple[float, float, float]:
    """QoS-meet fraction, mean and max total CPU over ``log[start:]``.

    The one place an episode's Figure 11 metrics are computed; an empty
    window scores NaN throughout.
    """
    p99 = np.array([qos.latency_of(s) for s in log])[start:]
    if len(p99) == 0:
        return float("nan"), float("nan"), float("nan")
    total_cpu = log.total_cpu_series()[start:]
    return (
        float(np.mean(p99 <= qos.latency_ms)),
        float(total_cpu.mean()),
        float(total_cpu.max()),
    )


def run_episode(
    manager: Manager,
    cluster: ClusterSimulator,
    duration: int,
    qos: QoSTarget,
    warmup: int = 10,
    recorder=None,
) -> EpisodeResult:
    """Run ``duration`` decision intervals under ``manager``.

    This is the only loop in which a manager steps a cluster; the other
    episode kinds (resilience, on-policy collection, continuous
    learning) score its result.

    The first ``warmup`` intervals are excluded from the summary metrics
    (the manager is converging from the deploy-time allocation), but are
    retained in the telemetry log.

    The manager reads the cluster's *observed* telemetry — identical to
    the ground-truth log unless a fault injector is corrupting the
    manager's view — while the summary metrics always score ground
    truth.

    Passing a :class:`repro.obs.Recorder` attaches it to the manager,
    cluster, and predictor for the episode and detaches it afterwards;
    the default (``None``) leaves observability off and the episode
    bitwise-identical.
    """
    if duration <= warmup:
        raise ValueError("duration must exceed warmup")
    if recorder is not None:
        attach_recorder(recorder, manager=manager, cluster=cluster)
    try:
        manager.reset()
        for _ in range(duration):
            alloc = manager.decide(cluster.observed)
            cluster.step(alloc)
    finally:
        if recorder is not None:
            attach_recorder(NULL_RECORDER, manager=manager, cluster=cluster)

    log = cluster.telemetry
    qos_fraction, mean_cpu, max_cpu = score_window(log, qos, warmup)
    return EpisodeResult(
        manager_name=manager.name,
        users=cluster.workload.pattern.users(0.0),
        qos_ms=qos.latency_ms,
        mean_total_cpu=mean_cpu,
        max_total_cpu=max_cpu,
        qos_fraction=qos_fraction,
        duration=duration,
        telemetry=log,
    )


def _sweep_episode(
    manager_factory: Callable[[], Manager],
    cluster_factory: Callable[[float, int], ClusterSimulator],
    users: float,
    seed: int,
    duration: int,
    qos: QoSTarget,
    warmup: int,
) -> EpisodeResult:
    """One (fresh manager, fresh cluster) episode — picklable worker."""
    manager = manager_factory()
    cluster = cluster_factory(users, seed)
    return run_episode(manager, cluster, duration, qos, warmup)


def sweep_loads(
    manager_factory: Callable[[], Manager],
    cluster_factory: Callable[[float, int], ClusterSimulator],
    loads: list[float],
    duration: int,
    qos: QoSTarget,
    seed: int = 0,
    warmup: int = 10,
    jobs: int | None = None,
    progress=None,
    recorder=None,
) -> list[EpisodeResult]:
    """Run one episode per load level with fresh manager and cluster.

    This is the paper's Figure 11 protocol: for each user count, an
    independent experiment measuring mean/max CPU allocation and the
    probability of meeting QoS.  With ``jobs`` set, episodes fan out
    over worker processes (both factories must then be picklable —
    module-level callables, not lambdas) on the process-wide warm pool
    (:mod:`repro.harness.pool`), so back-to-back sweeps skip the pool
    spin-up; results always come back in load order and are identical
    to the serial run.
    """
    tasks = [
        EpisodeTask(
            index=i,
            label=f"sweep[users={users:g}]",
            fn=_sweep_episode,
            kwargs=dict(
                manager_factory=manager_factory,
                cluster_factory=cluster_factory,
                users=users,
                seed=seed + i,
                duration=duration,
                qos=qos,
                warmup=warmup,
            ),
        )
        for i, users in enumerate(loads)
    ]
    summary = run_episodes(tasks, jobs=jobs, progress=progress, recorder=recorder)
    summary.raise_if_no_results()
    return summary.results


__all__ = ["EpisodeResult", "score_window", "run_episode", "sweep_loads"]
