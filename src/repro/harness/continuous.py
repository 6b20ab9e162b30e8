"""Continuous-learning episodes and the drift scenario.

Harness entry points for :class:`~repro.core.retrain.ContinuousSinanManager`:

* :func:`run_continuous_episode` — one episode with the learning loop
  on, returning the ordinary episode summary plus the model-lifecycle
  record (drift signals, divergences, promotions).
* :func:`run_drift_scenario` — the end-to-end experiment backing the
  pipeline: the same seeded episode with a permanent capacity
  regression (:class:`~repro.sim.behaviors.CapacityDrift`) is run twice,
  once under a frozen incumbent and once under the continuous manager;
  the comparison isolates what detection -> background retrain ->
  shadow -> promotion buys in post-drift QoS attainment.

The retrain worker's boundary data comes from
:class:`BoundaryCollector`, a picklable callable that runs a bandit
exploration sweep against the *drifted* platform (fresh clusters, own
seeds — it never touches the live episode).  Sweeps fan out over the
process pool by default (one worker per CPU, or ``REPRO_JOBS``; pass
``jobs=1`` to force serial) — per-load episodes are independent and
seeded, so the collected dataset is bit-identical at any worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.data_collection import (
    BanditPolicyFactory,
    CollectionConfig,
    DataCollector,
)
from repro.core.predictor import HybridPredictor
from repro.core.qos import QoSTarget
from repro.core.retrain import (
    ContinuousSinanManager,
    PromotionGate,
    RetrainConfig,
)
from repro.core.scheduler import SchedulerConfig
from repro.core.sinan import SinanManager
from repro.harness.experiment import EpisodeResult, run_episode, score_window
from repro.harness.pipeline import make_cluster
from repro.obs.audit import EVENT_PROMOTED, ModelEventRecord
from repro.sim.behaviors import CapacityDrift
from repro.sim.cluster import ClusterSimulator
from repro.sim.graph import AppGraph


@dataclass(frozen=True)
class _DriftedClusterFactory:
    """Picklable ``(users, seed) -> cluster`` on the post-drift platform."""

    graph: AppGraph
    capacity: float

    def __call__(self, users: float, seed: int) -> ClusterSimulator:
        behaviors = ()
        if self.capacity < 1.0:
            # start=0 / ramp=0: the regression is fully in effect, i.e.
            # collection samples the platform the challenger must learn.
            behaviors = (CapacityDrift(start=0.0, ramp=0.0,
                                       final_capacity=self.capacity),)
        return make_cluster(self.graph, users, seed, behaviors=behaviors)


def _default_jobs() -> int:
    """Default worker count for boundary sweeps: ``REPRO_JOBS`` when set
    (the harness-wide contract, now also honored by ``resolve_jobs`` for
    every ``jobs=None`` call site), otherwise one per CPU.  This helper
    differs from the harness-wide default only when the env var is
    unset: boundary collection fans out per CPU rather than running
    serial, because it is bit-identical at any worker count — fanning
    out by default only changes wall-clock time."""
    raw = os.environ.get("REPRO_JOBS", "").strip()
    return int(raw) if raw else 0


@dataclass(frozen=True)
class BoundaryCollector:
    """``collect(seed) -> SinanDataset`` for the retrain worker.

    Runs a fresh bandit-exploration sweep on the (possibly drifted)
    platform.  Everything is seeded from the worker's seed — the live
    episode's RNG and cluster are untouched.
    """

    graph: AppGraph
    qos: QoSTarget
    capacity: float = 1.0
    """Platform capacity the sweep samples (1.0 = nominal)."""
    loads: tuple[float, ...] = (60.0, 120.0, 240.0)
    seconds_per_load: int = 60
    jobs: int | None = None
    """Worker processes for the per-load fan-out.  ``None`` resolves
    through :func:`_default_jobs` (``REPRO_JOBS``, else one per CPU);
    ``1`` forces the inline serial path.  Either way the dataset is
    bit-identical — per-load episodes are independent and seeded."""
    cluster_factory: object = None
    """Optional picklable ``(users, seed) -> cluster`` override for
    applications outside the harness registry (it should already apply
    the drifted platform)."""

    def __call__(self, seed: int):
        config = CollectionConfig(qos=self.qos)
        factory = self.cluster_factory or _DriftedClusterFactory(
            self.graph, self.capacity
        )
        collector = DataCollector(factory, config)
        result = collector.collect(
            loads=list(self.loads),
            seconds_per_load=self.seconds_per_load,
            seed=seed,
            policy_factory=BanditPolicyFactory(config),
            jobs=self.jobs if self.jobs is not None else _default_jobs(),
        )
        return result.dataset


@dataclass
class ContinuousResult:
    """One continuous-learning episode and its model lifecycle."""

    episode: EpisodeResult
    events: list = field(default_factory=list)
    """Interleaved model-event / divergence records, decision order."""
    drift_signals: list = field(default_factory=list)
    promotions: int = 0
    retrains: int = 0
    final_state: str = "monitor"

    @property
    def promotion_interval(self) -> int | None:
        """Decision index of the first promotion, or ``None``."""
        for record in self.events:
            if (
                isinstance(record, ModelEventRecord)
                and record.event == EVENT_PROMOTED
            ):
                return record.interval
        return None

    @property
    def divergences(self) -> int:
        return sum(
            1 for r in self.events if not isinstance(r, ModelEventRecord)
        )


def run_continuous_episode(
    manager: ContinuousSinanManager,
    cluster: ClusterSimulator,
    duration: int,
    qos: QoSTarget,
    warmup: int = 10,
    recorder=None,
) -> ContinuousResult:
    """One episode under the continuous-learning manager.

    Same loop as :func:`~repro.harness.experiment.run_episode` — the
    learning machinery lives inside ``manager.decide`` — plus the
    model-lifecycle stream in the result.
    """
    episode = run_episode(
        manager, cluster, duration, qos, warmup=warmup, recorder=recorder
    )
    return ContinuousResult(
        episode=episode,
        events=list(manager.events),
        drift_signals=list(manager.detector.signals),
        promotions=manager.promotions,
        retrains=manager.retrains,
        final_state=manager.state,
    )


@dataclass
class DriftScenarioResult:
    """Frozen-vs-continuous comparison on the same seeded drift episode."""

    continuous: ContinuousResult
    frozen: EpisodeResult
    qos_ms: float
    post_start: int
    """First interval of the post-promotion comparison window."""
    frozen_post_qos: float
    """Frozen incumbent's QoS attainment over the window."""
    continuous_post_qos: float
    """Continuous manager's QoS attainment over the same window."""

    @property
    def qos_gain(self) -> float:
        return self.continuous_post_qos - self.frozen_post_qos


def scenario_scheduler_config(trust_threshold: int = 10**6) -> SchedulerConfig:
    """Scheduler config for drift studies: calibrated thresholds
    (``p_down``/``p_up`` from the model, so recalibration is visible in
    behavior) and an effectively unlimited trust threshold (the paper's
    deployments never had to drop trust; a frozen incumbent that merely
    goes conservative would mask the comparison)."""
    return SchedulerConfig(p_down=None, p_up=None, trust_threshold=trust_threshold)


def run_drift_scenario(
    predictor: HybridPredictor,
    graph: AppGraph,
    qos: QoSTarget,
    users: float,
    duration: int,
    seed: int = 0,
    drift: CapacityDrift | None = None,
    collect=None,
    drift_config=None,
    retrain_config: RetrainConfig | None = None,
    gate: PromotionGate | None = None,
    scheduler_config: SchedulerConfig | None = None,
    cluster_factory=None,
    registry=None,
    warmup: int = 10,
    recorder=None,
) -> DriftScenarioResult:
    """Run the end-to-end drift experiment on paired seeded episodes.

    Both arms see the identical cluster (same seed, same
    :class:`CapacityDrift`); the frozen arm keeps its deploy-time model
    for the whole episode, the continuous arm may detect, retrain in the
    background, shadow, and promote.  The result compares QoS attainment
    over the window starting at the continuous arm's first promotion
    (falling back to the second half of the episode if nothing was
    promoted, so the comparison never silently degenerates).

    ``cluster_factory`` — ``(users, seed, behaviors) -> cluster`` — lets
    applications outside the harness registry (the tests' tiny app) run
    the scenario; the default builds registry clusters.
    """
    drift = drift or CapacityDrift(start=60.0, ramp=30.0, final_capacity=0.55)
    scheduler_config = scheduler_config or scenario_scheduler_config()
    if collect is None:
        collect = BoundaryCollector(
            graph, qos,
            capacity=drift.final_capacity,
            loads=(users * 0.6, users, users * 1.5),
        )

    def episode_cluster() -> ClusterSimulator:
        if cluster_factory is not None:
            return cluster_factory(users, seed, (drift,))
        return make_cluster(graph, users, seed, behaviors=(drift,))

    frozen_manager = SinanManager(
        predictor, qos, graph, scheduler_config=scheduler_config
    )
    frozen = run_episode(
        frozen_manager, episode_cluster(), duration, qos, warmup=warmup
    )

    manager = ContinuousSinanManager(
        predictor,
        qos,
        collect=collect,
        graph=graph,
        scheduler_config=scheduler_config,
        drift_config=drift_config,
        retrain_config=retrain_config,
        gate=gate,
        registry=registry,
    )
    continuous = run_continuous_episode(
        manager, episode_cluster(), duration, qos, warmup=warmup,
        recorder=recorder,
    )

    promo = continuous.promotion_interval
    post_start = promo + 1 if promo is not None else duration // 2
    return DriftScenarioResult(
        continuous=continuous,
        frozen=frozen,
        qos_ms=qos.latency_ms,
        post_start=post_start,
        frozen_post_qos=score_window(frozen.telemetry, qos, post_start)[0],
        continuous_post_qos=score_window(
            continuous.episode.telemetry, qos, post_start
        )[0],
    )


def format_continuous_report(result: ContinuousResult) -> str:
    """Human-readable episode summary plus the model lifecycle."""
    ep = result.episode
    lines = [
        f"continuous episode: {ep.duration} intervals, "
        f"QoS attainment {ep.qos_fraction:.3f}, "
        f"mean CPU {ep.mean_total_cpu:.1f}",
        f"  drift signals: {len(result.drift_signals)}, "
        f"retrains: {result.retrains}, promotions: {result.promotions}, "
        f"shadow divergences: {result.divergences}, "
        f"final state: {result.final_state}",
    ]
    for signal in result.drift_signals:
        lines.append(f"  - {signal.describe()}")
    for record in result.events:
        if isinstance(record, ModelEventRecord):
            why = f" ({record.reason})" if record.reason else ""
            lines.append(
                f"  - interval {record.interval}: model v{record.version} "
                f"{record.event}{why}"
            )
    return "\n".join(lines)


def format_drift_scenario(result: DriftScenarioResult) -> str:
    """Two-arm comparison table for the drift scenario."""
    lines = [
        format_continuous_report(result.continuous),
        f"post-window (from interval {result.post_start}):",
        f"  frozen incumbent QoS attainment:   {result.frozen_post_qos:.3f}",
        f"  continuous manager QoS attainment: {result.continuous_post_qos:.3f}",
        f"  gain: {result.qos_gain:+.3f}",
    ]
    return "\n".join(lines)


__all__ = [
    "BoundaryCollector",
    "ContinuousResult",
    "run_continuous_episode",
    "DriftScenarioResult",
    "run_drift_scenario",
    "scenario_scheduler_config",
    "format_continuous_report",
    "format_drift_scenario",
]
