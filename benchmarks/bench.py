"""Speed and equivalence benchmarks: production paths vs their oracles.

Each hot path in ``src/repro`` has one implementation; the slower code
it was derived from lives in :mod:`tests.oracles`.  This module times
the two against each other and checks they agree:

* the decision path — candidate encoding, CNN inference, Boosted-Trees
  inference, and the end-to-end ``predict_candidates`` call across
  candidate counts, plus a scheduler replay (``BENCH_decision.json``);
* the training path (``BENCH_training.json``);
* the simulator interval (``BENCH_sim.json``);
* the full episode and the event engine (``BENCH_episode.json``);
* the fan-out layer, warm pool vs cold pools (``BENCH_sweep.json``);
* credit arbitration vs static partitions (``BENCH_multitenant.json``).

Every benchmark is built from the same four parts: :class:`BenchConfig`
(the only settings callers vary; everything else is a module constant),
:func:`alternate` (times the production and the oracle side in turns),
:func:`replay` (the one managed-episode loop) and :func:`write_envelope`
(one result schema: ``benchmark``, ``config``, ``host``, ``results`` and
``gates``).  :func:`format_envelope` prints any result and
:func:`assert_gates` checks one read back from disk.

The decision-path models are synthetic (random CNN weights, randomly
grown trees): the benchmark measures inference mechanics, which do not
depend on the weights being trained, so it stays fast while exercising
production-sized models (full ``CNNConfig``, hundreds of trees).  The
``benchmarks/test_perf_*.py`` files run these and gate the results.
"""

from __future__ import annotations

import json
import operator
import pickle
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from perfbench.run import host_record
from repro.core.actions import ActionSpace
from repro.core.predictor import HybridPredictor, PredictorConfig, TrainingReport
from repro.core.sinan import SinanManager
from repro.harness.pipeline import app_spec, make_cluster
from repro.harness.reporting import format_table
from repro.ml.boosted_trees import (
    BoostedTrees,
    BoostedTreesConfig,
    _compile_trees,
    _Node,
)
from repro.ml.dataset import SinanDataset
from repro.ml.network import FitResult
from repro.obs.recorder import NULL_RECORDER, attach_recorder
from repro.sim._ckernel import load_kernel
from repro.sim.telemetry import LATENCY_PERCENTILES, TelemetryLog
from tests.oracles.control import ReferenceScheduler
from tests.oracles.engine import ReferenceQueueingEngine
from tests.oracles.events import ReferenceEventEngine
from tests.oracles.layers import use_reference_layers
from tests.oracles.pool import ColdWorkerPool
from tests.oracles.predictor import reference_predictor, use_reference_training
from tests.oracles.trees import ReferenceBoostedTrees

ROOT = Path(__file__).resolve().parents[1]

APP = "social_network"
SEED = 0


@dataclass(frozen=True)
class BenchConfig:
    """The settings callers vary: the synthetic predictor's size and
    the decision benchmarks' repeats and episode length."""

    n_timesteps: int = 5
    repeats: int = 30
    n_trees: int = 300
    tree_depth: int = 6
    decision_intervals: int = 25


#: Decision path: candidate counts scored per decision.
CANDIDATE_COUNTS = (16, 64, 128)

#: Training path: a synthetic dataset sized like collected data, the
#: production tree budget and CNN epochs, and one retry of the
#: seconds-long end-to-end training per side.
TRAIN_SAMPLES = 1536
TRAIN_TREES = 400
CNN_EPOCHS = 5
BATCH_SIZE = 256
TRAIN_REPEATS = 2

#: Simulation path: a 300-interval episode at 20 ticks per interval,
#: the high-resolution regime the batched tick exists for.
SIM_INTERVALS = 300
SIM_TICK = 0.05
SIM_RPS = 900.0
SIM_REPEATS = 3
SIM_EQUIVALENCE_INTERVALS = 60

#: Episode path: Sinan-attached episodes, the decide() overhead at B=64
#: and the event engine near saturation.  The event engine's true ratio
#: sits just above its 3x gate, so it takes 30 repeats per side for both
#: minimums to settle; with fewer the ratio swings with host load.
EPISODE_REPEATS = 3
EQUIVALENCE_INTERVALS = 12
FAULT_PROFILE = "chaos"
COMPONENT_CANDIDATES = 64
EVENT_ALLOC = 1.0
EVENT_RPS = 120.0
EVENT_DURATION = 20.0
EVENT_REPEATS = 30

#: Fan-out: a 32-episode on-policy collection sweep (``jobs=0`` is one
#: worker per CPU) and short episodes for the bit-identity gates.
SWEEP_EPISODES = 32
SWEEP_SECONDS = 12
SWEEP_JOBS = 0
SWEEP_EQUIVALENCE_EPISODES = 3
SWEEP_EQUIVALENCE_SECONDS = 8

#: Multi-tenant contention: three staggered tenants on one budget, sized
#: so their peaks overlap pairwise — tight enough to contend, wide
#: enough that credit arbitration can still cover every tenant's QoS.
CLUSTER_CPU = 240.0
TENANT_MANAGER = "autoscale-cons"


def _config(**settings) -> dict:
    return {"app": APP, "seed": SEED, **settings}


# ----------------------------------------------------------------------
# Timing, replay, gates and the result envelope
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Timing:
    """Per-repeat seconds of a production side and its oracle."""

    fast_s: tuple[float, ...]
    reference_s: tuple[float, ...]

    @property
    def speedup(self) -> float:
        """Ratio of the per-side minimums."""
        fast = min(self.fast_s)
        return min(self.reference_s) / fast if fast else 0.0

    def as_dict(self, unit: str = "ms") -> dict:
        scale = {"ms": 1e3, "s": 1.0}[unit]
        out: dict = {}
        for side, times in (("fast", self.fast_s), ("reference", self.reference_s)):
            out[f"{side}_{unit}"] = round(min(times) * scale, 4)
            out[f"{side}_median_{unit}"] = round(statistics.median(times) * scale, 4)
            out[f"{side}_repeats"] = len(times)
        out["speedup"] = round(self.speedup, 2)
        return out


def alternate(
    fast,
    reference,
    repeats: int,
    reference_repeats: int | None = None,
    *,
    warmup: int = 0,
    self_timed: bool = False,
) -> Timing:
    """Time two zero-argument callables in alternation.

    Each side first runs ``warmup`` times untimed (lazy plans, compiled
    trees, caches); then the sides take turns, so a busy stretch of a
    shared host slows both rather than one, and the side with more
    repeats finishes alone.  A call's wall time is recorded or, with
    ``self_timed``, the seconds the call returns — for sides whose
    setup must stay outside the measurement.
    """
    if reference_repeats is None:
        reference_repeats = repeats
    sides = ((fast, max(repeats, 1), []), (reference, max(reference_repeats, 1), []))
    for _ in range(warmup):
        fast()
        reference()
    for i in range(max(n for _, n, _ in sides)):
        for fn, n, times in sides:
            if i < n:
                t0 = time.perf_counter()
                measured = fn()
                times.append(measured if self_timed else time.perf_counter() - t0)
    return Timing(tuple(sides[0][2]), tuple(sides[1][2]))


def sinan(predictor: HybridPredictor, oracle: str | None = None) -> SinanManager:
    """A Sinan manager on the production decision path, or on an oracle:
    ``"scoring"`` swaps in the per-candidate scoring path, ``"control"``
    also the Action-list candidate/select loop."""
    qos = app_spec(predictor.graph).qos
    scorer = predictor if oracle is None else reference_predictor(predictor)
    manager = SinanManager(scorer, qos)
    if oracle == "control":
        graph = predictor.graph
        space = ActionSpace(graph.min_alloc(), graph.max_alloc())
        manager.scheduler = ReferenceScheduler(scorer, space, qos)
    return manager


@dataclass
class Replay:
    """One replayed episode: the allocations chosen and what they cost."""

    trace: list[np.ndarray]
    telemetry: TelemetryLog
    wall_s: float
    """The whole loop: simulator steps and decisions."""
    decide_s: list[float]
    """Each decision."""


def replay(
    manager: SinanManager,
    intervals: int,
    seed: int,
    *,
    fault_profile: str | None = None,
    decide=None,
    recorder=None,
) -> Replay:
    """Replay one managed episode at the middle of the collection load
    range.

    Each interval steps the cluster at its current allocation, asks
    ``decide`` (the manager's own unless given) for an allocation and,
    when one comes back, steps the cluster at it.  Decisions feed back
    into the simulator, so a single diverging decision would diverge
    every later interval: trace equality is an end-to-end check.
    """
    graph = manager.predictor.graph
    lo, hi = app_spec(graph).collection_load_range
    cluster = make_cluster(
        graph, users=(lo + hi) / 2, seed=seed, fault_profile=fault_profile
    )
    decide = decide or manager.decide
    manager.predictor.encoder.invalidate_cache()
    if recorder is not None:
        attach_recorder(recorder, manager=manager, cluster=cluster)
    trace: list[np.ndarray] = []
    decide_s: list[float] = []
    try:
        t0 = time.perf_counter()
        for _ in range(intervals):
            cluster.step(cluster.current_alloc)
            t1 = time.perf_counter()
            alloc = decide(cluster.observed)
            decide_s.append(time.perf_counter() - t1)
            if alloc is not None:
                cluster.step(alloc)
                trace.append(np.array(alloc, dtype=float))
        wall_s = time.perf_counter() - t0
    finally:
        if recorder is not None:
            attach_recorder(NULL_RECORDER, manager=manager, cluster=cluster)
    return Replay(trace, cluster.telemetry, wall_s, decide_s)


def _traces_equal(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _replay_pair(
    predictor: HybridPredictor, oracle: str, intervals: int, repeats: int, stat
) -> tuple[Timing, Replay, Replay]:
    """Alternate production and oracle replays from one seed; ``stat``
    picks the seconds each replay reports.  Returns the timing and the
    last replay of each side."""
    last: dict = {}

    def side(which: str | None):
        def run() -> float:
            last[which] = replay(sinan(predictor, which), intervals, SEED + 7)
            return stat(last[which])

        return run

    timing = alternate(side(None), side(oracle), repeats, self_timed=True)
    return timing, last[None], last[oracle]


_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "==": operator.eq}


def gate(name: str, value, op: str, bound) -> dict:
    """One acceptance check: ``value op bound``."""
    if isinstance(value, np.generic):
        value = value.item()
    return {
        "name": name,
        "value": value,
        "op": op,
        "bound": bound,
        "ok": bool(_OPS[op](value, bound)),
    }


def envelope_path(benchmark: str) -> Path:
    return ROOT / f"BENCH_{benchmark}.json"


def write_envelope(
    benchmark: str, config: dict, results: dict, gates: list[dict], workers: int = 1
) -> dict:
    """Write ``BENCH_<benchmark>.json`` at the repository root and
    return its envelope; ``host`` is recorded as ``perfbench`` records
    it."""
    envelope = {
        "benchmark": benchmark,
        "config": config,
        "host": host_record(load_kernel() is not None, workers),
        "results": results,
        "gates": gates,
    }
    envelope_path(benchmark).write_text(json.dumps(envelope, indent=2) + "\n")
    return envelope


def read_envelope(benchmark: str) -> dict:
    return json.loads(envelope_path(benchmark).read_text())


def _flatten(value, prefix: str = ""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _flatten(item, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{prefix}[{i}]")
    else:
        yield prefix, value


def format_envelope(envelope: dict) -> str:
    """Human-readable summary of any benchmark envelope."""
    host = envelope["host"]
    blas = host.get("blas") or {}
    config = ", ".join(f"{k}={v}" for k, v in envelope["config"].items())
    lines = [
        f"{envelope['benchmark']} benchmark ({config})",
        f"host: {host['nproc']} cpus, python {host['python']}, numpy "
        f"{host['numpy']}, blas {blas.get('name')} {blas.get('version')} "
        f"({blas.get('threads')} threads), C kernel {host['sim_c_kernel']}",
    ]
    lines += [f"  {key} = {value}" for key, value in _flatten(envelope["results"])]
    lines.append(format_table(
        ["Gate", "Value", "Op", "Bound", "OK"],
        [
            [g["name"], g["value"], g["op"], g["bound"], "ok" if g["ok"] else "FAIL"]
            for g in envelope["gates"]
        ],
    ))
    return "\n".join(lines)


def assert_gates(envelope: dict, names) -> None:
    """Every gate of ``envelope`` holds, and it carries exactly ``names``."""
    gates = envelope["gates"]
    assert sorted(g["name"] for g in gates) == sorted(names), gates
    failed = [g for g in gates if not g["ok"]]
    assert not failed, failed


# ----------------------------------------------------------------------
# Decision path
# ----------------------------------------------------------------------


def _grow_tree(rng: np.random.Generator, n_features: int, depth: int) -> _Node:
    """A random decision tree over standard-normal features."""
    if depth == 0:
        return _Node(value=float(rng.normal(0.0, 0.05)))
    return _Node(
        feature=int(rng.integers(n_features)),
        threshold=float(rng.normal(0.0, 0.7)),
        left=_grow_tree(rng, n_features, depth - 1),
        right=_grow_tree(rng, n_features, depth - 1),
    )


def make_synthetic_predictor(config: BenchConfig) -> HybridPredictor:
    """A production-sized predictor with fabricated weights.

    Fitting 300+ trees takes minutes; growing random ones takes
    milliseconds and exercises exactly the same inference code.  The
    normalizer is fitted on a small random dataset and the training
    report is stubbed so the scheduler's ``thresholds``/``rmse_val``
    accessors work.
    """
    spec = app_spec(APP)
    graph = spec.graph_factory()
    rng = np.random.default_rng(SEED)
    predictor = HybridPredictor(
        graph,
        spec.qos,
        PredictorConfig(n_timesteps=config.n_timesteps),
        seed=SEED,
    )

    n, f, t = graph.n_tiers, predictor.encoder.n_channels, config.n_timesteps
    m = predictor.cnn.n_percentiles
    calib = SinanDataset(
        X_RH=np.abs(rng.normal(2.0, 1.0, (64, f, n, t))),
        X_LH=np.abs(rng.normal(spec.qos.latency_ms / 2, 20.0, (64, t, m))),
        X_RC=np.abs(rng.normal(2.0, 0.5, (64, n))),
        y_lat=np.abs(rng.normal(spec.qos.latency_ms / 2, 20.0, (64, m))),
        y_viol=rng.integers(0, 2, 64).astype(float),
        meta={},
    )
    predictor.normalizer.fit(calib)

    n_bt_features = predictor.cnn.config.latent_dim + 3 * n + m
    predictor.trees.trees = [
        _grow_tree(rng, n_bt_features, config.tree_depth)
        for _ in range(config.n_trees)
    ]
    predictor.trees.base_margin = -1.0
    predictor.trees._compiled = _compile_trees(predictor.trees.trees)

    predictor.report = TrainingReport(
        cnn_fit=FitResult(),
        rmse_train=8.0,
        rmse_val=10.0,
        bt_accuracy_train=0.95,
        bt_accuracy_val=0.93,
        bt_trees=config.n_trees,
        bt_false_pos_val=0.05,
        bt_false_neg_val=0.01,
        p_up=0.08,
        p_down=0.02,
        n_train=1000,
        n_val=100,
    )
    return predictor


def make_bench_log(config: BenchConfig) -> TelemetryLog:
    """A telemetry log recorded from a short managed-by-nobody episode."""
    spec = app_spec(APP)
    graph = spec.graph_factory()
    lo, hi = spec.collection_load_range
    cluster = make_cluster(graph, users=(lo + hi) / 2, seed=SEED)
    rng = np.random.default_rng(SEED + 1)
    for _ in range(config.n_timesteps + 20):
        jitter = rng.uniform(-0.2, 0.2, cluster.n_tiers)
        cluster.step(cluster.clip_alloc(cluster.current_alloc + jitter))
    return cluster.telemetry


def bench_components(
    predictor: HybridPredictor, log: TelemetryLog, b: int, config: BenchConfig
) -> dict:
    """Per-stage and end-to-end timings for one candidate count."""
    rng = np.random.default_rng(SEED + b)
    base = np.asarray(log.latest.cpu_alloc, dtype=float)
    n_tiers = predictor.graph.n_tiers
    cands = np.clip(base + rng.uniform(-1.0, 1.0, (b, n_tiers)), 0.2, None)
    reference = reference_predictor(predictor)

    def timed(fast, ref) -> dict:
        return alternate(
            fast, ref, config.repeats, max(config.repeats // 4, 3), warmup=1
        ).as_dict()

    encoder = predictor.encoder
    encode = timed(
        lambda: encoder.encode_candidates_shared(log, cands),
        lambda: reference.encoder.encode_candidates(log, cands),
    )

    x_rh1, x_lh1, x_rc = encoder.encode_candidates_shared(log, cands)
    in_fast = predictor._model_inputs(x_rh1, x_lh1, x_rc)
    x_rhb, x_lhb, _ = reference.encoder.encode_candidates(log, cands)
    in_ref = predictor._model_inputs(x_rhb, x_lhb, x_rc)
    cnn = timed(
        lambda: predictor.cnn.predict_candidates(in_fast),
        lambda: predictor.cnn.predict_with_latent(in_ref),
    )

    lat_shared, latent = predictor.cnn.predict_candidates(in_fast)
    lat_batch, latent_batch = predictor.cnn.predict_with_latent(in_ref)
    cnn_gap = max(
        float(np.abs(lat_shared - lat_batch).max()),
        float(np.abs(latent - latent_batch).max()),
    )
    bt_in = predictor._bt_features(latent, x_rh1, x_lh1, x_rc)
    trees = timed(
        lambda: predictor.trees.predict_proba(bt_in),
        lambda: reference.trees.predict_proba_reference(bt_in),
    )

    total = timed(
        lambda: predictor.predict_candidates(log, cands),
        lambda: reference.predict_candidates(log, cands),
    )

    lat_fast, prob_fast = predictor.predict_candidates(log, cands)
    lat_ref, prob_ref = reference.predict_candidates(log, cands)
    equal = bool(
        np.array_equal(lat_fast, lat_ref) and np.array_equal(prob_fast, prob_ref)
    )
    return {
        "candidates": b,
        "encode": encode,
        "cnn": cnn,
        "trees": trees,
        "total": total,
        "bitwise_equal": equal,
        "cnn_max_abs_gap": cnn_gap,
    }


def bench_scheduler(predictor: HybridPredictor, config: BenchConfig) -> dict:
    """Replay one managed episode on the production and the oracle
    scoring path; times are per decision."""
    n = config.decision_intervals
    timing, fast, ref = _replay_pair(
        predictor, "scoring", n, 1, lambda r: sum(r.decide_s) / max(n, 1)
    )
    return {
        "decisions": len(fast.trace),
        "identical_traces": _traces_equal(fast.trace, ref.trace),
        **timing.as_dict(),
    }


def run_bench(config: BenchConfig = BenchConfig()) -> dict:
    """Run the decision-path benchmark and write its envelope."""
    predictor = make_synthetic_predictor(config)
    log = make_bench_log(config)
    components = [
        bench_components(predictor, log, b, config) for b in CANDIDATE_COUNTS
    ]
    scheduler = bench_scheduler(predictor, config)
    gates = [
        gate(f"bitwise_equal[{row['candidates']}]", row["bitwise_equal"], "==", True)
        for row in components
    ]
    # The shared-history CNN rounds its batch-1 history GEMMs
    # differently from the full B-copy batch; the gap must stay at float
    # rounding.
    gates += [
        gate(f"cnn_gap[{row['candidates']}]", row["cnn_max_abs_gap"], "<=", 1e-12)
        for row in components
    ]
    gates += [
        gate(f"speedup[{row['candidates']}]", row["total"]["speedup"], ">=", 5.0)
        for row in components
        if row["candidates"] >= 64
    ]
    gates.append(
        gate("scheduler_identical_traces", scheduler["identical_traces"], "==", True)
    )
    return write_envelope(
        "decision",
        _config(**asdict(config), candidate_counts=list(CANDIDATE_COUNTS)),
        {"n_tiers": predictor.graph.n_tiers, "components": components,
         "scheduler": scheduler},
        gates,
    )


# ----------------------------------------------------------------------
# Training path
# ----------------------------------------------------------------------


def _window_channels(graph, n_timesteps: int) -> int:
    from repro.core.features import WindowEncoder

    return WindowEncoder(graph, n_timesteps).n_channels


def make_training_dataset(n_timesteps: int) -> SinanDataset:
    """A synthetic but learnable dataset sized like collected data.

    Latency labels follow a smooth function of the aggregate load
    signal minus the candidate allocation (plus noise), violations
    threshold the p99 label against QoS — enough structure that the
    trees grow full depth and the CNN loss actually falls.
    """
    spec = app_spec(APP)
    graph = spec.graph_factory()
    f = _window_channels(graph, n_timesteps)
    n, t, tiers = TRAIN_SAMPLES, n_timesteps, graph.n_tiers
    m = len(LATENCY_PERCENTILES)
    qos = spec.qos.latency_ms
    rng = np.random.default_rng(SEED)

    X_RH = np.abs(rng.normal(2.0, 1.0, (n, f, tiers, t)))
    X_RC = np.abs(rng.normal(2.0, 0.5, (n, tiers)))
    load = X_RH.mean(axis=(1, 2, 3)) - 0.6 * X_RC.mean(axis=1)
    load = (load - load.mean()) / max(load.std(), 1e-9)
    p99 = qos * (0.55 + 0.35 * np.tanh(load)) + rng.normal(0.0, qos * 0.03, n)
    p99 = np.clip(p99, qos * 0.05, qos * 2.2)
    spread = np.linspace(0.82, 1.0, m)
    y_lat = p99[:, None] * spread[None, :]
    X_LH = np.abs(
        y_lat[:, None, :] * rng.uniform(0.85, 1.15, (n, t, m))
    )
    # Violation labels carry interaction structure plus 15% label flips:
    # linearly inseparable and noisy, so both tree growers chase
    # residuals to full depth — the workload a real collected dataset
    # induces — instead of terminating on a trivially pure split.
    inter = X_RH[:, 0].mean(axis=(1, 2)) * X_RC[:, 0] - X_RH[:, -1].mean(
        axis=(1, 2)
    ) * X_RC[:, -1]
    inter = (inter - inter.mean()) / max(inter.std(), 1e-9)
    y_viol = ((p99 / qos + 0.3 * np.sign(inter) * inter * inter) > 1.0).astype(
        float
    )
    flips = rng.random(n) < 0.15
    y_viol[flips] = 1.0 - y_viol[flips]
    return SinanDataset(
        X_RH=X_RH, X_LH=X_LH, X_RC=X_RC, y_lat=y_lat, y_viol=y_viol, meta={}
    )


def _tree_structures_equal(a, b) -> bool:
    """Exact split-for-split equality of two fitted ensembles
    (feature and bin threshold exact, leaf weights to 1e-10)."""
    if len(a.trees) != len(b.trees):
        return False

    def walk(x, y) -> bool:
        if (x is None) != (y is None):
            return False
        if x is None:
            return True
        if x.feature != y.feature or x.threshold != y.threshold:
            return False
        if abs(x.value - y.value) > 1e-10:
            return False
        return walk(x.left, y.left) and walk(x.right, y.right)

    return all(walk(ta, tb) for ta, tb in zip(a.trees, b.trees))


def bench_tree_fit() -> dict:
    """Histogram grower vs reference grower on a bt-feature-sized task."""
    graph = app_spec(APP).graph_factory()
    rng = np.random.default_rng(SEED + 11)
    # Same feature dimension the trees see in the hybrid model:
    # latent + [rc, delta, util] per tier + latency percentiles.
    latent_dim = PredictorConfig().cnn.latent_dim
    d = latent_dim + 3 * graph.n_tiers + len(LATENCY_PERCENTILES)
    n = TRAIN_SAMPLES
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.5 * X[:, 1] * X[:, 2] + 0.3 * rng.normal(size=n) > 0.4).astype(
        float
    )
    n_val = max(n // 10, 10)
    X_val = rng.normal(size=(n_val, d))
    y_val = (X_val[:, 0] + 0.5 * X_val[:, 1] * X_val[:, 2] > 0.4).astype(float)

    # Both paths grow the full budget (no early stop) so the timed work
    # is identical by construction.
    bt_cfg = BoostedTreesConfig(n_trees=TRAIN_TREES, early_stopping_rounds=TRAIN_TREES)
    models: dict = {}

    def fit(tree_cls):
        def run() -> None:
            models[tree_cls] = tree_cls(bt_cfg, seed=SEED)
            models[tree_cls].fit(X, y, X_val, y_val)

        return run

    timing = alternate(fit(BoostedTrees), fit(ReferenceBoostedTrees), 1)
    fast, ref = models[BoostedTrees], models[ReferenceBoostedTrees]
    return {
        "n_samples": n,
        "n_features": d,
        "n_trees": len(fast.trees),
        **timing.as_dict("s"),
        "structures_equal": _tree_structures_equal(fast, ref),
        "margins_bitwise_equal": bool(
            np.array_equal(fast.predict_margin(X_val), ref.predict_margin(X_val))
        ),
    }


def bench_cnn_epochs(n_timesteps: int) -> dict:
    """im2col/fused training vs einsum/loop reference, same CNN fit;
    each side reports its mean epoch time."""
    from repro.ml.cnn import LatencyCNN

    graph = app_spec(APP).graph_factory()
    rng = np.random.default_rng(SEED + 23)
    n, t, tiers = TRAIN_SAMPLES, n_timesteps, graph.n_tiers
    m = len(LATENCY_PERCENTILES)
    f = _window_channels(graph, t)
    inputs = (
        rng.normal(size=(n, f, tiers, t)),
        rng.normal(size=(n, t, m)),
        rng.normal(size=(n, 2 * tiers)),
    )
    targets = inputs[0].mean(axis=(1, 2, 3))[:, None] * np.ones(m) + rng.normal(
        0.0, 0.05, (n, m)
    )
    fits: dict = {}

    def fit(fast: bool):
        def run() -> float:
            model = LatencyCNN(
                n_tiers=tiers,
                n_timesteps=t,
                n_channels=f,
                n_percentiles=m,
                seed=SEED + 5,
                n_rc_features=2 * tiers,
            )
            if not fast:
                use_reference_layers(model)
            fits[fast] = model.fit(
                inputs, targets, epochs=CNN_EPOCHS, batch_size=BATCH_SIZE,
                seed=SEED, patience=0,
            )
            return float(np.mean(fits[fast].epoch_time_s))

        return run

    timing = alternate(fit(True), fit(False), 1, self_timed=True)
    loss_diff = np.abs(np.subtract(fits[True].train_loss, fits[False].train_loss))
    return {
        "n_samples": n,
        "epochs": CNN_EPOCHS,
        **timing.as_dict("s"),
        "losses_close": bool(np.all(loss_diff <= 1e-8)),
        "max_loss_diff": float(np.max(loss_diff)),
    }


def bench_end_to_end(n_timesteps: int, dataset: SinanDataset) -> dict:
    """Full ``HybridPredictor.train`` per path, the minimum over
    :data:`TRAIN_REPEATS` alternated runs: the runs are seconds long, so
    one background hiccup would otherwise dominate the ratio."""
    spec = app_spec(APP)
    reports: dict = {}

    def train(fast: bool):
        def run() -> float:
            predictor = HybridPredictor(
                spec.graph_factory(),
                spec.qos,
                PredictorConfig(
                    n_timesteps=n_timesteps,
                    epochs=CNN_EPOCHS,
                    batch_size=BATCH_SIZE,
                    patience=0,
                    trees=BoostedTreesConfig(
                        n_trees=TRAIN_TREES, early_stopping_rounds=TRAIN_TREES
                    ),
                ),
                seed=SEED,
            )
            if not fast:
                use_reference_training(predictor)
            t0 = time.perf_counter()
            reports[fast] = predictor.train(dataset)
            return time.perf_counter() - t0

        return run

    timing = alternate(train(True), train(False), TRAIN_REPEATS, self_timed=True)
    fast, ref = reports[True], reports[False]
    # The two paths differ by float rounding, so the trained models are
    # equivalent in quality, not bitwise: compare the reported metrics.
    return {
        "n_samples": len(dataset),
        **timing.as_dict("s"),
        "rmse_val_fast": round(fast.rmse_val, 3),
        "rmse_val_reference": round(ref.rmse_val, 3),
        "bt_accuracy_val_fast": round(fast.bt_accuracy_val, 4),
        "bt_accuracy_val_reference": round(ref.bt_accuracy_val, 4),
        "quality_close": bool(
            np.isclose(fast.rmse_val, ref.rmse_val, rtol=0.05, atol=1.0)
            and np.isclose(fast.bt_accuracy_val, ref.bt_accuracy_val, atol=0.05)
        ),
    }


def run_training_bench(config: BenchConfig = BenchConfig()) -> dict:
    """Run the training-path benchmark and write its envelope."""
    t = config.n_timesteps
    tree_fit = bench_tree_fit()
    cnn_fit = bench_cnn_epochs(t)
    end_to_end = bench_end_to_end(t, make_training_dataset(t))
    gates = [
        gate("n_trees", TRAIN_TREES, ">=", 200),
        gate("cnn_epochs", CNN_EPOCHS, ">=", 5),
        gate("tree_structures_equal", tree_fit["structures_equal"], "==", True),
        gate("tree_margins_bitwise_equal", tree_fit["margins_bitwise_equal"],
             "==", True),
        gate("cnn_losses_close", cnn_fit["losses_close"], "==", True),
        gate("end_to_end_quality_close", end_to_end["quality_close"], "==", True),
        gate("end_to_end_speedup", end_to_end["speedup"], ">=", 4.0),
        gate("tree_fit_speedup", tree_fit["speedup"], ">=", 4.0),
    ]
    return write_envelope(
        "training",
        _config(n_timesteps=t, n_samples=TRAIN_SAMPLES, n_trees=TRAIN_TREES,
                cnn_epochs=CNN_EPOCHS, batch_size=BATCH_SIZE,
                repeats=TRAIN_REPEATS),
        {"tree_fit": tree_fit, "cnn_fit": cnn_fit, "end_to_end": end_to_end},
        gates,
    )


# ----------------------------------------------------------------------
# Simulation path
# ----------------------------------------------------------------------


_SIM_STAT_FIELDS = (
    "time", "rps", "cpu_alloc", "cpu_util", "rss_mb", "cache_mb",
    "rx_pps", "tx_pps", "queue", "latency_ms", "drops",
    "latency_samples_ms",
)


def _interval_stats_equal(a, b) -> bool:
    """Bitwise equality of two :class:`IntervalStats` (every field)."""
    for name in _SIM_STAT_FIELDS:
        if not np.array_equal(
            np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        ):
            return False
    return a.rps_by_type == b.rps_by_type


def _sim_inputs(graph, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Interval ``i``'s allocation and rates: deterministic sweeps that
    cross the latency knee, so queues, drops, and the sampler's drop
    path are all exercised."""
    base_alloc = np.full(graph.n_tiers, 2.0)
    rates = np.full(graph.n_types, SIM_RPS / graph.n_types)
    phase = np.arange(graph.n_tiers)
    return (
        base_alloc * (1.0 + 0.1 * np.sin(i + phase)),
        rates * (1.0 + 0.2 * np.sin(i / 3.0)),
    )


def bench_sim_episode() -> dict:
    """Episode wall time, fast path vs reference (min over repeats)."""
    from repro.sim.engine import EngineConfig, QueueingEngine

    graph = app_spec(APP).graph_factory()
    base = (np.full(graph.n_tiers, 2.0), np.full(graph.n_types, SIM_RPS / graph.n_types))

    def episode(engine_cls):
        def run() -> float:
            engine = engine_cls(graph, EngineConfig(tick=SIM_TICK), seed=SEED)
            # Warm-up interval: builds the tick plan and (first time
            # only) compiles the C kernel, outside the timed region.
            engine.run_interval(*base)
            t0 = time.perf_counter()
            for i in range(SIM_INTERVALS):
                engine.run_interval(*_sim_inputs(graph, i))
            return time.perf_counter() - t0

        return run

    timing = alternate(
        episode(QueueingEngine), episode(ReferenceQueueingEngine), SIM_REPEATS,
        self_timed=True,
    )
    fast_s, ref_s = min(timing.fast_s), min(timing.reference_s)
    return {
        "intervals": SIM_INTERVALS,
        **timing.as_dict("s"),
        "intervals_per_s_fast": round(SIM_INTERVALS / fast_s, 1),
        "intervals_per_s_reference": round(SIM_INTERVALS / ref_s, 1),
    }


def bench_sim_equivalence() -> dict:
    """Bitwise fast-vs-reference check across engine scenarios.

    Each scenario runs a fresh fast engine and a fresh reference engine
    from the same seed and compares every ``IntervalStats`` field of
    every interval, the engines' internal state vectors, and the final
    RNG state — any divergence in the RNG consumption plan would show up
    here even if the visible stats happened to agree.
    """
    from repro.sim.engine import EngineConfig, QueueingEngine

    graph = app_spec(APP).graph_factory()
    scenarios = {
        "normal": {},
        "overload": {"max_queue": 30.0},
        "bursty": {"spike_prob": 0.5, "spike_mult_range": (2.0, 3.0)},
    }
    results: dict[str, bool] = {}
    for name, overrides in scenarios.items():
        fast_e, ref_e = (
            engine_cls(
                graph, EngineConfig(tick=SIM_TICK, **overrides), seed=SEED + 13
            )
            for engine_cls in (QueueingEngine, ReferenceQueueingEngine)
        )
        ok = all(
            _interval_stats_equal(
                fast_e.run_interval(*_sim_inputs(graph, i)),
                ref_e.run_interval(*_sim_inputs(graph, i)),
            )
            for i in range(SIM_EQUIVALENCE_INTERVALS)
        )
        ok = ok and all(
            np.array_equal(getattr(fast_e, attr), getattr(ref_e, attr))
            for attr in ("queue", "_busy_ewma", "_busy_frac", "_demand", "_sojourn")
        )
        ok = ok and fast_e.time == ref_e.time
        ok = ok and fast_e._rng.bit_generator.state == ref_e._rng.bit_generator.state
        results[name] = bool(ok)
    return results


def run_sim_bench() -> dict:
    """Run the simulation-path benchmark and write its envelope."""
    graph = app_spec(APP).graph_factory()
    episode = bench_sim_episode()
    equivalence = bench_sim_equivalence()
    gates = [gate(f"equal_{k}", v, "==", True) for k, v in equivalence.items()]
    gates += [
        gate("n_tiers", graph.n_tiers, "==", 28),
        gate("intervals", episode["intervals"], ">=", 300),
        gate("speedup", episode["speedup"], ">=", 5.0),
    ]
    return write_envelope(
        "sim",
        _config(intervals=SIM_INTERVALS, tick=SIM_TICK,
                ticks_per_interval=max(int(round(1.0 / SIM_TICK)), 1),
                rps=SIM_RPS, repeats=SIM_REPEATS,
                equivalence_intervals=SIM_EQUIVALENCE_INTERVALS),
        {"n_tiers": graph.n_tiers, "episode": episode, "equivalence": equivalence},
        gates,
    )


# ----------------------------------------------------------------------
# Episode path (end-to-end control loop + event engine)
# ----------------------------------------------------------------------


def bench_episode_throughput(predictor: HybridPredictor, config: BenchConfig) -> dict:
    """End-to-end episode wall time — simulator steps plus decisions —
    on the production stack vs the whole oracle decision stack."""
    n = config.decision_intervals
    timing, fast, ref = _replay_pair(
        predictor, "control", n, EPISODE_REPEATS, lambda r: r.wall_s
    )
    fast_s, ref_s = min(timing.fast_s), min(timing.reference_s)
    return {
        "intervals": n,
        **timing.as_dict("s"),
        "intervals_per_s_fast": round(n / fast_s, 2),
        "intervals_per_s_reference": round(n / ref_s, 2),
        "identical_traces": _traces_equal(fast.trace, ref.trace),
    }


def _event_inputs(graph) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.full(graph.n_tiers, EVENT_ALLOC),
        np.full(graph.n_types, EVENT_RPS / graph.n_types),
    )


def bench_event_run() -> dict:
    """``EventDrivenEngine.run`` vs ``ReferenceEventEngine.run`` on the
    production-sized graph near saturation, where the per-event Python
    cost of the reference dominates."""
    from repro.sim.event_engine import EventDrivenEngine, EventEngineConfig

    graph = app_spec(APP).graph_factory()
    allocs, rates = _event_inputs(graph)

    def run(engine_cls):
        def timed() -> float:
            engine = engine_cls(graph, EventEngineConfig(), seed=SEED + 3)
            t0 = time.perf_counter()
            engine.run(allocs, rates, EVENT_DURATION)
            return time.perf_counter() - t0

        return timed

    timing = alternate(
        run(EventDrivenEngine), run(ReferenceEventEngine), EVENT_REPEATS,
        self_timed=True,
    )
    probe = EventDrivenEngine(graph, EventEngineConfig(), seed=SEED + 3)
    n_req = int(probe.run(allocs, rates, EVENT_DURATION)["n_requests"])
    return {
        "n_requests": n_req,
        **timing.as_dict(),
        "requests_per_s_fast": round(n_req / min(timing.fast_s), 1),
        "requests_per_s_reference": round(n_req / min(timing.reference_s), 1),
    }


def bench_decide_overhead(predictor: HybridPredictor, config: BenchConfig) -> dict:
    """``scheduler.decide`` wall time vs the sum of its model
    components at the same candidate count.

    The ratio is the control-loop overhead the matrix candidate/select
    path exists to kill: anything above ~1.0 is pure-Python work around
    the models (candidate enumeration, selection, bookkeeping).  Decide
    is timed per decision inside a live episode (where steady-state
    decisions score exactly B=64 candidates on ``social_network``:
    scale-ups/holds only, reclamation gated by the cooldown) and, like
    the components, the minimum is kept; decisions at other candidate
    counts — e.g. the first one, which also enumerates scale-downs —
    are reported but excluded from the ratio, which would otherwise
    compare different batch sizes.
    """
    log = make_bench_log(config)
    components = bench_components(predictor, log, COMPONENT_CANDIDATES, config)
    components_ms = sum(components[k]["fast_ms"] for k in ("encode", "cnn", "trees"))

    batch_sizes: list[int] = []
    original = predictor.predict_candidates

    def spying_predict(log_, cands):
        batch_sizes.append(len(cands))
        return original(log_, cands)

    manager = sinan(predictor)
    scored: list[list[int]] = []

    def decide(observed):
        n_before = len(batch_sizes)
        alloc = manager.scheduler.decide(observed)
        scored.append(batch_sizes[n_before:])
        return alloc

    predictor.predict_candidates = spying_predict
    try:
        episode = replay(manager, config.decision_intervals, SEED + 7, decide=decide)
    finally:
        predictor.__dict__.pop("predict_candidates", None)

    at_b = [
        s for s, sizes in zip(episode.decide_s, scored)
        if sizes == [COMPONENT_CANDIDATES]
    ]
    decide_ms = min(at_b, default=float("inf")) * 1e3
    return {
        "component_candidates": COMPONENT_CANDIDATES,
        "decisions_at_b": len(at_b),
        "candidate_counts_seen": sorted(set(batch_sizes)),
        "decide_ms": round(decide_ms, 4),
        "components_sum_ms": round(components_ms, 4),
        "overhead_ratio": round(decide_ms / components_ms, 3) if components_ms else 0.0,
        "components": components,
    }


def bench_episode_equivalence(predictor: HybridPredictor) -> dict:
    """Bitwise production-vs-oracle gates for the whole episode stack.

    Control loop: full episodes (normal and fault-injected) on the
    production and the oracle stack must produce identical decision
    traces *and* identical telemetry on every interval.  Event engine:
    ``run`` on both engines from the same seed must agree on every
    summary field and leave the RNG bit-generator in the same state, in
    a normal and an overloaded (drop-heavy) scenario.
    """
    from repro.sim.event_engine import EventDrivenEngine, EventEngineConfig

    results: dict[str, bool] = {}
    for name, profile in (("normal", None), (FAULT_PROFILE, FAULT_PROFILE)):
        fast, ref = (
            replay(sinan(predictor, oracle), EQUIVALENCE_INTERVALS, SEED + 31,
                   fault_profile=profile)
            for oracle in (None, "control")
        )
        ok = _traces_equal(fast.trace, ref.trace)
        ok = ok and len(fast.telemetry) == len(ref.telemetry) and all(
            _interval_stats_equal(a, b) for a, b in zip(fast.telemetry, ref.telemetry)
        )
        results[f"episode_{name}"] = bool(ok)

    graph = predictor.graph
    allocs, rates = _event_inputs(graph)
    scenarios = {
        "normal": ({}, allocs),
        "overload": ({"max_queue": 100}, allocs * 0.7),
    }
    for name, (overrides, alloc) in scenarios.items():
        fast_e, ref_e = (
            engine_cls(graph, EventEngineConfig(**overrides), seed=SEED + 13)
            for engine_cls in (EventDrivenEngine, ReferenceEventEngine)
        )
        sf = fast_e.run(alloc, rates, EVENT_DURATION)
        sr = ref_e.run(alloc, rates, EVENT_DURATION)
        ok = set(sf) == set(sr) and all(
            np.array_equal(np.asarray(sf[k]), np.asarray(sr[k]), equal_nan=True)
            for k in sf
        )
        ok = ok and fast_e._rng.bit_generator.state == ref_e._rng.bit_generator.state
        results[f"event_{name}"] = bool(ok)
    return results


def run_episode_bench(config: BenchConfig = BenchConfig()) -> dict:
    """Run the episode benchmark and write its envelope."""
    predictor = make_synthetic_predictor(config)
    episode = bench_episode_throughput(predictor, config)
    event = bench_event_run()
    decision = bench_decide_overhead(predictor, config)
    equivalence = bench_episode_equivalence(predictor)
    gates = [gate(f"equal_{k}", v, "==", True) for k, v in equivalence.items()]
    gates += [
        gate("episode_identical_traces", episode["identical_traces"], "==", True),
        gate("components_bitwise_equal", decision["components"]["bitwise_equal"],
             "==", True),
        gate("n_tiers", predictor.graph.n_tiers, "==", 28),
        gate("episode_speedup", episode["speedup"], ">=", 3.0),
        gate("event_speedup", event["speedup"], ">=", 3.0),
        gate("component_candidates", decision["component_candidates"], "==", 64),
        gate("decisions_at_b", decision["decisions_at_b"], ">", 0),
        gate("decide_overhead_ratio", decision["overhead_ratio"], "<=", 1.5),
    ]
    return write_envelope(
        "episode",
        _config(**asdict(config), episode_repeats=EPISODE_REPEATS,
                equivalence_intervals=EQUIVALENCE_INTERVALS,
                fault_profile=FAULT_PROFILE, event_alloc=EVENT_ALLOC,
                event_rps=EVENT_RPS, event_duration=EVENT_DURATION,
                event_repeats=EVENT_REPEATS),
        {"n_tiers": predictor.graph.n_tiers, "episode": episode,
         "event_engine": event, "decision": decision, "equivalence": equivalence},
        gates,
    )


# ----------------------------------------------------------------------
# Fan-out sweep: warm worker pool vs cold per-task-pickle path
# ----------------------------------------------------------------------


_SWEEP_DATASET_FIELDS = ("X_RH", "X_LH", "X_RC", "y_lat", "y_viol")


def _sweep_tasks(predictor: HybridPredictor, n_episodes: int, seconds: int, seed: int):
    """On-policy collection tasks across the app's load range — the
    exact task shape ``pipeline._collect_on_policy`` fans out."""
    from repro.harness.parallel import EpisodeTask
    from repro.harness.pipeline import _on_policy_episode

    spec = app_spec(APP)
    low, high = spec.collection_load_range
    return [
        EpisodeTask(
            index=i,
            label=f"bench-sweep[users={users:g}]",
            fn=_on_policy_episode,
            kwargs=dict(
                predictor=predictor,
                graph=predictor.graph,
                qos=spec.qos,
                users=float(users),
                seconds=seconds,
                seed=seed + i,
            ),
        )
        for i, users in enumerate(np.linspace(low, high, n_episodes))
    ]


def _sweep_results_equal(results_a, results_b) -> bool:
    return len(results_a) == len(results_b) and all(
        np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
        for a, b in zip(results_a, results_b)
        for name in _SWEEP_DATASET_FIELDS
    )


def bench_sweep_throughput(predictor: HybridPredictor) -> dict:
    """Wall-clock of the full collection sweep: cold baseline vs warm pool.

    The baseline is the exact pre-pool fan-out: a fresh pool per call
    whose spin-up is part of the measured wall time, with the full
    predictor pickled into every task.  The warm variant is measured as
    a *subsequent* call on an already-live pool (spin-up and the
    one-time broadcast are timed separately as ``warm_spinup_s``) —
    that's the steady state every later sweep in a run sees.
    """
    from repro.harness.parallel import resolve_jobs, run_episodes
    from repro.harness.pool import WorkerPool

    n_workers = resolve_jobs(SWEEP_JOBS)
    tasks = _sweep_tasks(predictor, SWEEP_EPISODES, SWEEP_SECONDS, SEED)
    runs: dict = {}

    def warm() -> float:
        with WorkerPool(jobs=n_workers) as pool:
            t0 = time.perf_counter()
            run_episodes(tasks[:n_workers], jobs=n_workers, pool=pool)
            runs["spinup_s"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            runs["warm"] = run_episodes(tasks, jobs=n_workers, pool=pool)
            return time.perf_counter() - t0

    def cold() -> float:
        t0 = time.perf_counter()
        with ColdWorkerPool(jobs=n_workers) as pool:
            runs["cold"] = run_episodes(tasks, jobs=n_workers, pool=pool)
        return time.perf_counter() - t0

    timing = alternate(warm, cold, 1, self_timed=True)
    pooled, baseline = runs["warm"], runs["cold"]
    baseline.raise_if_no_results()
    pooled.raise_if_no_results()
    return {
        "episodes": SWEEP_EPISODES,
        "workers": n_workers,
        **timing.as_dict("s"),
        "warm_spinup_s": round(runs["spinup_s"], 3),
        "pool_reused": bool(pooled.pool_reused),
        "broadcast_publishes": pooled.broadcast_publishes,
        "model_cache_hits": pooled.model_cache_hits,
        "identical_results": _sweep_results_equal(baseline.results, pooled.results),
    }


def bench_sweep_payload(predictor: HybridPredictor) -> dict:
    """Per-task payload bytes: full-predictor pickle vs ``ModelRef``."""
    from repro.harness.pool import WorkerPool

    task = _sweep_tasks(predictor, 1, SWEEP_SECONDS, SEED)[0]
    cold_bytes = len(pickle.dumps(task.kwargs, pickle.HIGHEST_PROTOCOL))
    with WorkerPool(jobs=1) as pool:
        ref, published = pool.broadcast(predictor)
        warm_bytes = len(pickle.dumps(
            {**task.kwargs, "predictor": ref}, pickle.HIGHEST_PROTOCOL
        ))
    return {
        "cold_task_bytes": cold_bytes,
        "warm_task_bytes": warm_bytes,
        "broadcast_bytes_once": published,
        "reduction": round(cold_bytes / warm_bytes, 1) if warm_bytes else 0.0,
    }


def bench_sweep_reuse(predictor: HybridPredictor) -> dict:
    """Two successive sweeps: warm pool reuse vs two cold pools.

    The second warm call must report ``pool_reused`` with zero new
    broadcast publishes, and both protocols must agree bit-for-bit —
    the warm pool is a pure wall-clock optimization.
    """
    from repro.harness.parallel import run_episodes
    from repro.harness.pool import WorkerPool

    n = max(2, SWEEP_EQUIVALENCE_EPISODES)
    sweeps = [
        _sweep_tasks(predictor, n, SWEEP_EQUIVALENCE_SECONDS, SEED + offset)
        for offset in (0, 1000)
    ]
    runs: dict = {}

    def warm() -> None:
        with WorkerPool(jobs=2) as pool:
            runs["warm"] = [run_episodes(t, jobs=2, pool=pool) for t in sweeps]

    def cold() -> None:
        runs["cold"] = []
        for tasks in sweeps:
            with ColdWorkerPool(jobs=2) as pool:
                runs["cold"].append(run_episodes(tasks, jobs=2, pool=pool))

    timing = alternate(warm, cold, 1)
    second = runs["warm"][1]
    return {
        "episodes_per_sweep": n,
        **timing.as_dict("s"),
        "second_call_reused": bool(second.pool_reused),
        "second_call_publishes": second.broadcast_publishes,
        "identical_results": all(
            _sweep_results_equal(c.results, w.results)
            for c, w in zip(runs["cold"], runs["warm"])
        ),
    }


def bench_sweep_equivalence(predictor: HybridPredictor) -> dict:
    """Bit-identity gates: pooled == serial == cold per-task path.

    Collection episodes (normal) and resilience cells (under the fault
    profile, sinan + a model-free manager) must produce byte-identical
    results no matter which execution substrate ran them.
    """
    from repro.harness.parallel import EpisodeTask, run_episodes
    from repro.harness.pool import WorkerPool
    from repro.harness.resilience import _resilience_episode

    results: dict[str, bool] = {}
    tasks = _sweep_tasks(
        predictor, SWEEP_EQUIVALENCE_EPISODES, SWEEP_EQUIVALENCE_SECONDS, SEED + 17
    )
    serial = run_episodes(tasks, jobs=1)
    with WorkerPool(jobs=2) as warm:
        pooled = run_episodes(tasks, jobs=2, pool=warm)
    with ColdWorkerPool(jobs=2) as cold:
        cold_run = run_episodes(tasks, jobs=2, pool=cold)
    results["collection_serial_vs_warm"] = _sweep_results_equal(
        serial.results, pooled.results
    )
    results["collection_serial_vs_cold"] = _sweep_results_equal(
        serial.results, cold_run.results
    )

    users = float(np.mean(app_spec(APP).collection_load_range))
    fault_tasks = [
        EpisodeTask(
            index=i,
            label=f"bench-fault[{manager}]",
            fn=_resilience_episode,
            kwargs=dict(
                app=APP,
                manager_name=manager,
                profile_name=FAULT_PROFILE,
                users=users,
                duration=SWEEP_EQUIVALENCE_SECONDS,
                seed=SEED + 29,
                warmup=2,
                predictor=predictor if manager == "sinan" else None,
            ),
        )
        for i, manager in enumerate(("sinan", "static"))
    ]
    fault_serial = run_episodes(fault_tasks, jobs=1)
    with WorkerPool(jobs=2) as warm:
        fault_pooled = run_episodes(fault_tasks, jobs=2, pool=warm)
    results[f"fault_{FAULT_PROFILE}_serial_vs_warm"] = (
        len(fault_serial.results) == len(fault_pooled.results)
        and all(
            asdict(a) == asdict(b)
            for a, b in zip(fault_serial.results, fault_pooled.results)
        )
    )
    return results


def run_sweep_bench(config: BenchConfig = BenchConfig()) -> dict:
    """Run the fan-out sweep benchmark and write its envelope."""
    from repro.harness.parallel import resolve_jobs

    predictor = make_synthetic_predictor(config)
    throughput = bench_sweep_throughput(predictor)
    payload = bench_sweep_payload(predictor)
    reuse = bench_sweep_reuse(predictor)
    equivalence = bench_sweep_equivalence(predictor)
    gates = [gate(f"equal_{k}", v, "==", True) for k, v in equivalence.items()]
    gates += [
        gate("throughput_identical_results", throughput["identical_results"],
             "==", True),
        gate("reuse_identical_results", reuse["identical_results"], "==", True),
        gate("episodes", throughput["episodes"], ">=", 32),
        gate("speedup", throughput["speedup"], ">=", 2.0),
        gate("payload_reduction", payload["reduction"], ">=", 50.0),
        gate("broadcast_bytes_once", payload["broadcast_bytes_once"], ">", 1_000_000),
        gate("pool_reused", throughput["pool_reused"], "==", True),
        gate("second_call_reused", reuse["second_call_reused"], "==", True),
        gate("second_call_publishes", reuse["second_call_publishes"], "==", 0),
    ]
    return write_envelope(
        "sweep",
        _config(**asdict(config), episodes=SWEEP_EPISODES, seconds=SWEEP_SECONDS,
                jobs=SWEEP_JOBS, equivalence_episodes=SWEEP_EQUIVALENCE_EPISODES,
                equivalence_seconds=SWEEP_EQUIVALENCE_SECONDS,
                fault_profile=FAULT_PROFILE),
        {"throughput": throughput, "payload": payload, "reuse": reuse,
         "equivalence": equivalence},
        gates,
        workers=resolve_jobs(SWEEP_JOBS),
    )


# ----------------------------------------------------------------------
# Multi-tenant contention: credit arbitration vs static partitions
# ----------------------------------------------------------------------


def _fingerprints(results):
    """Bitwise per-tenant trace identity for a sweep's results."""
    return [
        (r.arbiter, r.seed, t.tenant,
         t.telemetry.latency_matrix().tobytes(),
         t.telemetry.alloc_matrix().tobytes(),
         t.telemetry.rps_series().tobytes())
        for r in results for t in r.tenants
    ]


def run_multitenant_bench(duration: int, seeds: list[int]) -> tuple[dict, list]:
    """Sweep both arms serially and on two pooled workers; write the
    envelope and return it with the serial results."""
    from repro.harness.multitenant import default_tenant_specs, sweep_multitenant

    specs = default_tenant_specs(manager=TENANT_MANAGER)
    warmup = min(40, duration // 4)
    serial, pooled = (
        sweep_multitenant(
            specs, CLUSTER_CPU, duration, seeds=seeds, warmup=warmup, jobs=jobs
        )
        for jobs in (1, 2)
    )

    def arm_mean(arm: str, metric: str) -> float:
        return float(np.mean([getattr(r, metric) for r in serial if r.arbiter == arm]))

    credit = [r for r in serial if r.arbiter == "credit"]
    arms = {
        arm: {
            metric: arm_mean(arm, metric)
            for metric in ("aggregate_qos_fraction", "mean_cluster_cpu",
                           "max_cluster_cpu")
        }
        for arm in ("credit", "static")
    }
    contended = float(np.mean([r.contended_fraction for r in credit]))
    results = {
        "arms": arms,
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
    }
    # Credit arbitration must cover the cluster's QoS at least as well
    # as equal static partitions without burning more CPU, under real
    # contention, and the pooled sweep must match the serial one bit
    # for bit, tenant by tenant.
    gates = [
        gate("pooled_bitwise_equal", _fingerprints(serial) == _fingerprints(pooled),
             "==", True),
        gate("contended_fraction", contended, ">", 0),
        gate("credit_qos_vs_static", arms["credit"]["aggregate_qos_fraction"],
             ">=", arms["static"]["aggregate_qos_fraction"] - 1e-9),
        gate("credit_cpu_vs_static", arms["credit"]["mean_cluster_cpu"],
             "<=", arms["static"]["mean_cluster_cpu"] + 1e-6),
    ]
    envelope = write_envelope(
        "multitenant",
        {"budget_cpu": CLUSTER_CPU, "duration": duration, "warmup": warmup,
         "seeds": seeds, "manager": TENANT_MANAGER},
        results,
        gates,
        workers=2,
    )
    return envelope, serial


__all__ = [
    "BenchConfig",
    "Timing",
    "alternate",
    "Replay",
    "replay",
    "sinan",
    "gate",
    "write_envelope",
    "read_envelope",
    "format_envelope",
    "assert_gates",
    "make_synthetic_predictor",
    "make_bench_log",
    "bench_components",
    "run_bench",
    "run_training_bench",
    "run_sim_bench",
    "run_episode_bench",
    "bench_event_run",
    "run_sweep_bench",
    "run_multitenant_bench",
]
