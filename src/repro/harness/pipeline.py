"""End-to-end pipeline: application registry, data collection, model
training, and caching.

The paper's workflow (Appendix A.5) is: generate training data with the
bandit explorer, train the hybrid model, then deploy the inference
engine against the cluster.  ``build_sinan_pipeline`` performs all three
steps; ``get_trained_predictor`` memoizes the expensive middle step both
in-process and on disk (``.cache/``, overridable via the
``REPRO_CACHE_DIR`` environment variable), so the benchmark suite trains
each application's model once and reuses it across figures.

The disk cache is concurrency- and crash-safe: entries are written to a
temp file and published with an atomic ``os.replace``, cross-process
races on a cold cache are serialized by an exclusive ``.lock`` file (the
second process waits, then loads the winner's model instead of training
twice), and a truncated or otherwise unreadable entry is treated as a
miss — logged, deleted, and retrained — never as a crash.

Collection fans out per-load episodes over worker processes when
``jobs`` is given (see :mod:`repro.harness.parallel`); the dataset is
bit-identical to the serial run for a given seed regardless of worker
count, because every episode is independently seeded ``seed + i``.
Fanned-out calls share the process-wide warm pool and broadcast the
predictor once per content fingerprint (:mod:`repro.harness.pool`), so
the on-policy refinement rounds stop re-pickling the model per task and
successive pipeline stages reuse live workers.

Budgets scale the pipeline: ``small`` for unit tests, ``medium`` for the
benchmark suite, ``large`` for higher-fidelity runs approaching the
paper's collection scale.  The ``REPRO_BUDGET`` environment variable
overrides the default budget used by the benchmarks.
"""

from __future__ import annotations

import contextlib
import logging
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

try:  # POSIX-only; the lock degrades to a no-op elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.apps import (
    HOTEL_QOS_MS,
    MEDIA_QOS_MS,
    SOCIAL_QOS_MS,
    hotel_reservation,
    media_service,
    social_network,
)
from repro.core.data_collection import (
    BanditPolicyFactory,
    CollectionConfig,
    DataCollector,
)
from repro.core.predictor import HybridPredictor, PredictorConfig
from repro.core.qos import QoSTarget
from repro.core.sinan import SinanManager
from repro.harness.experiment import run_episode
from repro.harness.parallel import EpisodeTask, run_episodes
from repro.ml.dataset import SinanDataset
from repro.sim.behaviors import Behavior
from repro.sim.cluster import (
    LOCAL_PLATFORM,
    ClusterSimulator,
    PlatformSpec,
)
from repro.sim.faults import FaultInjector, FaultProfile, resolve_profile
from repro.sim.graph import AppGraph
from repro.workload.generator import RequestMix, Workload
from repro.workload.mixes import hotel_mix, media_mix, social_mix
from repro.workload.patterns import ConstantLoad, LoadPattern

logger = logging.getLogger(__name__)

# v6: collection episodes are independently seeded (seed + i) per load
# level so serial and parallel collection are bit-identical; previously
# one bandit instance carried state across load levels.
# v7: predictor checkpoints use the tagged save format (SAVE_FORMAT=2)
# and carry compiled boosted trees + fast-path state; older cache files
# would fail HybridPredictor.load's format check.
# v8: models are trained on the fast training path (histogram tree
# grower, im2col/fused-GEMM backprop); trained weights match the old
# path only to float tolerance, not bit for bit, so cached predictors
# from v7 would silently differ from freshly trained ones.
_CACHE_VERSION = 8


@dataclass(frozen=True)
class Budget:
    """How much data/compute the pipeline spends."""

    name: str
    collection_loads: int
    """Number of constant-load levels sampled during collection."""

    seconds_per_load: int
    """Collection intervals per load level."""

    epochs: int
    batch_size: int

    refine_rounds: int = 1
    """On-policy refinement passes: after the initial (bandit-collected)
    training, data is also collected while the trained Sinan manages the
    cluster, and the models are retrained on the union.  This is the
    paper's periodic background retraining (Section 4.2, "retraining can
    be triggered periodically..."), closing the gap between the
    exploration distribution and the deployment distribution."""

    @property
    def total_samples(self) -> int:
        return self.collection_loads * self.seconds_per_load


BUDGETS: dict[str, Budget] = {
    "small": Budget("small", collection_loads=2, seconds_per_load=60, epochs=8,
                    batch_size=128, refine_rounds=0),
    "medium": Budget("medium", collection_loads=6, seconds_per_load=400, epochs=30,
                     batch_size=256, refine_rounds=1),
    "large": Budget("large", collection_loads=8, seconds_per_load=700, epochs=40,
                    batch_size=512, refine_rounds=1),
}


def resolve_budget(budget: str | Budget | None = None) -> Budget:
    """Resolve a budget name, honoring the REPRO_BUDGET env override."""
    if isinstance(budget, Budget):
        return budget
    name = budget or os.environ.get("REPRO_BUDGET", "medium")
    try:
        return BUDGETS[name]
    except KeyError:
        raise KeyError(f"unknown budget {name!r}; choose from {sorted(BUDGETS)}") from None


@dataclass(frozen=True)
class AppSpec:
    """Per-application evaluation parameters from the paper."""

    name: str
    graph_factory: Callable[[], AppGraph]
    qos: QoSTarget
    mix_factory: Callable[[], RequestMix]
    fig11_loads: tuple[float, ...]
    """The user counts swept in Figure 11."""

    collection_load_range: tuple[float, float]
    """(low, high) user range the collector samples."""


_APP_SPECS: dict[str, AppSpec] = {
    "social_network": AppSpec(
        name="social_network",
        graph_factory=social_network,
        qos=QoSTarget(SOCIAL_QOS_MS),
        mix_factory=social_mix,
        fig11_loads=(50, 100, 150, 200, 250, 300, 350, 400, 450),
        collection_load_range=(50, 480),
    ),
    "hotel_reservation": AppSpec(
        name="hotel_reservation",
        graph_factory=hotel_reservation,
        qos=QoSTarget(HOTEL_QOS_MS),
        mix_factory=hotel_mix,
        fig11_loads=(1000, 1300, 1600, 1900, 2200, 2500, 2800, 3100, 3400, 3700),
        collection_load_range=(800, 3900),
    ),
    "media_service": AppSpec(
        name="media_service",
        graph_factory=media_service,
        qos=QoSTarget(MEDIA_QOS_MS),
        mix_factory=media_mix,
        fig11_loads=(100, 200, 300, 400, 500, 600, 700, 800, 900),
        collection_load_range=(80, 950),
    ),
}


def app_spec(app: str | AppGraph) -> AppSpec:
    """Look up an application's evaluation parameters by name or graph."""
    name = app if isinstance(app, str) else app.name
    try:
        return _APP_SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; choose from {sorted(_APP_SPECS)}"
        ) from None


def make_cluster(
    graph: AppGraph,
    users: float,
    seed: int = 0,
    mix: RequestMix | None = None,
    platform: PlatformSpec = LOCAL_PLATFORM,
    behaviors: tuple[Behavior, ...] = (),
    pattern: LoadPattern | None = None,
    fault_profile: str | FaultProfile | None = None,
    fault_seed: int | None = None,
) -> ClusterSimulator:
    """Build a fresh episode for ``graph`` at a given load.

    ``fault_profile`` (a name from
    :data:`~repro.sim.faults.FAULT_PROFILES` or a profile instance)
    attaches a seeded :class:`~repro.sim.faults.FaultInjector`;
    ``fault_seed`` defaults to the episode seed, keeping fault runs
    bit-identical for a fixed seed under any ``--jobs`` fan-out.
    """
    spec = app_spec(graph)
    workload = Workload(
        graph,
        pattern or ConstantLoad(users),
        mix or spec.mix_factory(),
    )
    faults = None
    if fault_profile is not None:
        faults = FaultInjector(
            resolve_profile(fault_profile),
            graph.n_tiers,
            seed=seed if fault_seed is None else fault_seed,
        )
    return ClusterSimulator(
        graph, workload, platform=platform, seed=seed, behaviors=behaviors,
        faults=faults,
    )


def make_manager(name: str, graph: AppGraph, qos: QoSTarget, predictor=None):
    """Build a manager by CLI name (shared by ``run``/``sweep``/``resilience``).

    ``static`` holds the deploy-time allocation (60% of each ceiling,
    matching :class:`~repro.sim.cluster.ClusterSimulator`'s default) —
    the no-reaction baseline fault scenarios are compared against.
    """
    from repro.baselines import AutoScale, PowerChief
    from repro.core.manager import StaticManager

    if name == "sinan":
        if predictor is None:
            raise ValueError("the sinan manager needs a trained predictor")
        return SinanManager(predictor, qos, graph)
    if name == "autoscale-opt":
        return AutoScale.opt(graph.min_alloc(), graph.max_alloc())
    if name == "autoscale-cons":
        return AutoScale.conservative(graph.min_alloc(), graph.max_alloc())
    if name == "powerchief":
        return PowerChief(graph.min_alloc(), graph.max_alloc())
    if name == "static":
        return StaticManager(graph.max_alloc() * 0.6)
    raise ValueError(
        f"unknown manager {name!r}; choose from sinan, autoscale-opt, "
        "autoscale-cons, powerchief, static"
    )


def collection_loads(spec: AppSpec, budget: Budget) -> list[float]:
    """Evenly spaced collection load levels across the app's range."""
    low, high = spec.collection_load_range
    return list(np.linspace(low, high, budget.collection_loads))


@dataclass(frozen=True)
class _EpisodeClusterFactory:
    """Picklable ``(users, seed) -> ClusterSimulator`` for worker processes."""

    graph: AppGraph
    platform: PlatformSpec

    def __call__(self, users: float, seed: int) -> ClusterSimulator:
        return make_cluster(self.graph, users, seed, platform=self.platform)


def collect_training_data(
    graph: AppGraph,
    budget: str | Budget | None = None,
    seed: int = 0,
    platform: PlatformSpec = LOCAL_PLATFORM,
    jobs: int | None = None,
    progress=None,
) -> SinanDataset:
    """Collect a bandit-explored training dataset for ``graph``.

    Each load level is an independent episode with its own
    :class:`~repro.core.data_collection.BanditExplorer` seeded
    ``seed + i``; with ``jobs`` set, episodes fan out over worker
    processes (``0`` = all cores) and the concatenated dataset is
    bit-identical to the serial run.  The shared-state protocol of the
    Figure 10 studies is :meth:`DataCollector.collect` with ``policy=``.
    """
    spec = app_spec(graph)
    budget = resolve_budget(budget)
    config = CollectionConfig(qos=spec.qos)
    if not isinstance(graph, AppGraph):
        graph = spec.graph_factory()
    collector = DataCollector(_EpisodeClusterFactory(graph, platform), config)
    result = collector.collect(
        loads=collection_loads(spec, budget),
        seconds_per_load=budget.seconds_per_load,
        seed=seed,
        policy_factory=BanditPolicyFactory(config),
        jobs=jobs,
        progress=progress,
    )
    return result.dataset


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR", Path(__file__).resolve().parents[3] / ".cache")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


_memory_cache: dict[tuple, HybridPredictor] = {}


def _load_cache_entry(cache_file: Path) -> HybridPredictor | None:
    """Load a cached predictor; any unreadable entry is a cache miss.

    A crash or power loss mid-write (pre-atomic-write caches), a partial
    copy, or a version skew must never wedge the pipeline: the corrupt
    entry is logged, removed, and the caller retrains.
    """
    try:
        with open(cache_file, "rb") as fh:
            return pickle.load(fh)
    except FileNotFoundError:
        return None
    except Exception as exc:  # truncated pickle, version skew, EIO, ...
        logger.warning(
            "corrupt predictor cache %s (%s: %s); retraining",
            cache_file, type(exc).__name__, exc,
        )
        with contextlib.suppress(OSError):
            cache_file.unlink()
        return None


def _store_cache_entry(cache_file: Path, predictor: HybridPredictor) -> None:
    """Atomically publish a cache entry (temp file + ``os.replace``).

    Readers either see the complete old entry or the complete new one —
    never a truncated pickle — even across a crash or a concurrent
    writer.
    """
    tmp = cache_file.with_name(f"{cache_file.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            pickle.dump(predictor, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, cache_file)
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink()


@contextlib.contextmanager
def _cache_lock(cache_file: Path):
    """Exclusive cross-process lock for one cache entry.

    Serializes train-and-write on a cold cache: the losing process
    blocks until the winner publishes its entry, then loads it instead
    of training the same model twice.  No-op where ``fcntl`` is missing.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    lock_file = cache_file.with_name(cache_file.name + ".lock")
    with open(lock_file, "a+") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def _train_predictor(
    spec: AppSpec,
    budget: Budget,
    seed: int,
    jobs: int | None = None,
    progress=None,
) -> HybridPredictor:
    """The uncached train path: collect, fit, on-policy refine."""
    graph = spec.graph_factory()
    dataset = collect_training_data(
        graph, budget, seed=seed, jobs=jobs, progress=progress
    )
    predictor = HybridPredictor(
        graph,
        spec.qos,
        PredictorConfig(epochs=budget.epochs, batch_size=budget.batch_size),
        seed=seed,
    )
    predictor.train(dataset)

    # On-policy refinement: collect under the trained manager, retrain
    # on the union (the paper's periodic background retraining).
    for round_idx in range(budget.refine_rounds):
        on_policy = _collect_on_policy(
            predictor, spec, graph, budget, seed=seed + 101 + round_idx,
            jobs=jobs, progress=progress,
        )
        dataset = SinanDataset.concatenate([dataset, on_policy])
        predictor.train(dataset, seed=seed + 7 + round_idx)
    return predictor


def get_trained_predictor(
    app: str | AppGraph,
    budget: str | Budget | None = None,
    seed: int = 0,
    use_cache: bool = True,
    *,
    read_cache: bool | None = None,
    write_cache: bool | None = None,
    jobs: int | None = None,
    progress=None,
) -> HybridPredictor:
    """Train (or load from cache) the hybrid predictor for an app.

    Caching is keyed on (app, budget, seed, cache version); delete the
    ``.cache`` directory (or set ``REPRO_CACHE_DIR``) to force
    retraining.  ``read_cache`` / ``write_cache`` refine ``use_cache``:
    ``read_cache=False`` alone retrains and then *refreshes* the cache
    (the CLI's ``--no-cache``), while ``use_cache=False`` skips the
    cache entirely.  Disk entries are written atomically and guarded by
    a per-entry lock, so concurrent callers racing on a cold cache train
    once and share the result; a corrupt entry is treated as a miss.

    ``jobs`` fans the underlying collection episodes out over worker
    processes (``0`` = all cores) without changing the trained model.
    """
    read = use_cache if read_cache is None else read_cache
    write = use_cache if write_cache is None else write_cache
    spec = app_spec(app)
    budget = resolve_budget(budget)
    key = (spec.name, budget.name, seed, _CACHE_VERSION)
    if read and key in _memory_cache:
        return _memory_cache[key]

    if not (read or write):
        return _train_predictor(spec, budget, seed, jobs=jobs, progress=progress)

    cache_file = _cache_dir() / f"predictor-{spec.name}-{budget.name}-s{seed}-v{_CACHE_VERSION}.pkl"
    with _cache_lock(cache_file):
        if read:
            predictor = _load_cache_entry(cache_file)
            if predictor is not None:
                _memory_cache[key] = predictor
                return predictor
        predictor = _train_predictor(spec, budget, seed, jobs=jobs, progress=progress)
        if write:
            _store_cache_entry(cache_file, predictor)
        _memory_cache[key] = predictor
    return predictor


def _on_policy_episode(
    predictor: HybridPredictor,
    graph: AppGraph,
    qos: QoSTarget,
    users: float,
    seconds: int,
    seed: int,
) -> SinanDataset:
    """One episode managed by the trained Sinan (picklable worker)."""
    from repro.core.features import build_dataset

    manager = SinanManager(predictor, qos, graph)
    cluster = make_cluster(graph, users, seed=seed)
    episode = run_episode(manager, cluster, seconds, qos, warmup=0)
    return build_dataset(
        episode.telemetry,
        graph,
        qos,
        n_timesteps=predictor.config.n_timesteps,
        horizon=predictor.config.horizon,
        meta={"policy": "sinan-on-policy", "users": users},
    )


def _collect_on_policy(
    predictor: HybridPredictor,
    spec: AppSpec,
    graph: AppGraph,
    budget: Budget,
    seed: int,
    jobs: int | None = None,
    progress=None,
) -> SinanDataset:
    """Record episodes managed by the trained Sinan across load levels."""
    seconds = max(budget.seconds_per_load // 2, 30)
    tasks = [
        EpisodeTask(
            index=i,
            label=f"on-policy[users={users:g}]",
            fn=_on_policy_episode,
            kwargs=dict(
                predictor=predictor,
                graph=graph,
                qos=spec.qos,
                users=users,
                seconds=seconds,
                seed=seed + i,
            ),
        )
        for i, users in enumerate(collection_loads(spec, budget))
    ]
    summary = run_episodes(tasks, jobs=jobs, progress=progress)
    summary.raise_if_no_results()
    return SinanDataset.concatenate(summary.results)


def build_sinan_pipeline(
    graph: AppGraph,
    users: float = 100,
    seed: int = 0,
    budget: str | Budget | None = None,
) -> tuple[SinanManager, ClusterSimulator]:
    """Data collection -> training -> manager + a fresh cluster to run."""
    spec = app_spec(graph)
    predictor = get_trained_predictor(graph, budget, seed=seed)
    manager = SinanManager(predictor, spec.qos, graph)
    cluster = make_cluster(graph, users, seed=seed + 1000)
    return manager, cluster


__all__ = [
    "Budget",
    "BUDGETS",
    "resolve_budget",
    "AppSpec",
    "app_spec",
    "make_cluster",
    "make_manager",
    "collection_loads",
    "collect_training_data",
    "get_trained_predictor",
    "build_sinan_pipeline",
]
