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
* the fan-out layer, warm pool vs cold pools (``BENCH_sweep.json``).

The decision-path models are synthetic (random CNN weights, randomly
grown trees): the benchmark measures inference mechanics, which do not
depend on the weights being trained, so it stays fast while exercising
production-sized models (full ``CNNConfig``, hundreds of trees).  The
``benchmarks/test_perf_*.py`` files run these and gate the results.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.actions import ActionSpace
from repro.core.predictor import HybridPredictor, PredictorConfig, TrainingReport
from repro.core.scheduler import OnlineScheduler
from repro.harness.pipeline import app_spec, make_cluster
from repro.ml.boosted_trees import BoostedTreesConfig, _compile_trees, _Node
from repro.ml.dataset import SinanDataset
from repro.ml.network import FitResult
from repro.sim.telemetry import LATENCY_PERCENTILES, TelemetryLog
from tests.oracles.control import ReferenceScheduler
from tests.oracles.engine import ReferenceQueueingEngine
from tests.oracles.layers import use_reference_layers
from tests.oracles.predictor import reference_predictor, use_reference_training
from tests.oracles.trees import ReferenceBoostedTrees

_PERCENTILES = LATENCY_PERCENTILES


def repo_root() -> Path:
    """Repository root, for anchoring relative benchmark outputs.

    Resolved from this file's location (``benchmarks/`` sits directly
    below the checkout root) so the benchmarks write ``BENCH_*.json`` to
    the same place no matter the caller's working directory.
    """
    return Path(__file__).resolve().parents[1]


def resolve_output(output: str | Path) -> Path:
    """Absolute path for a benchmark result file: absolute paths are
    taken as-is, relative ones anchor to :func:`repo_root`."""
    path = Path(output)
    return path if path.is_absolute() else repo_root() / path


@dataclass(frozen=True)
class BenchConfig:
    """Knobs of the decision-path benchmark."""

    app: str = "social_network"
    candidate_counts: tuple[int, ...] = (16, 64, 128)
    n_timesteps: int = 5
    repeats: int = 30
    seed: int = 0
    n_trees: int = 300
    tree_depth: int = 6
    decision_intervals: int = 25
    output: str = "BENCH_decision.json"
    """Result JSON path; empty skips writing.  Relative paths resolve
    against the repository root (see :func:`resolve_output`), not the
    CWD."""


@dataclass
class _Timed:
    """Min-over-repeats wall time of fast and reference variants."""

    fast_ms: float
    reference_ms: float
    speedup: float = field(init=False)

    def __post_init__(self) -> None:
        self.speedup = self.reference_ms / self.fast_ms if self.fast_ms else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "fast_ms": round(self.fast_ms, 4),
            "reference_ms": round(self.reference_ms, 4),
            "speedup": round(self.speedup, 2),
        }


def _time_ms(fn, repeats: int) -> float:
    fn()  # warm caches (einsum paths, compiled trees) outside the timing
    best = float("inf")
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


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
    spec = app_spec(config.app)
    graph = spec.graph_factory()
    rng = np.random.default_rng(config.seed)
    predictor = HybridPredictor(
        graph,
        spec.qos,
        PredictorConfig(n_timesteps=config.n_timesteps),
        seed=config.seed,
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


def make_bench_log(config: BenchConfig, intervals: int | None = None) -> TelemetryLog:
    """A telemetry log recorded from a short managed-by-nobody episode."""
    spec = app_spec(config.app)
    graph = spec.graph_factory()
    lo, hi = spec.collection_load_range
    cluster = make_cluster(graph, users=(lo + hi) / 2, seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)
    for _ in range(intervals or (config.n_timesteps + 20)):
        jitter = rng.uniform(-0.2, 0.2, cluster.n_tiers)
        cluster.step(cluster.clip_alloc(cluster.current_alloc + jitter))
    return cluster.telemetry


def _candidate_batch(
    log: TelemetryLog, n_tiers: int, b: int, rng: np.random.Generator
) -> np.ndarray:
    base = np.asarray(log.latest.cpu_alloc, dtype=float)
    return np.clip(base + rng.uniform(-1.0, 1.0, (b, n_tiers)), 0.2, None)


def bench_components(
    predictor: HybridPredictor, log: TelemetryLog, b: int, config: BenchConfig
) -> dict:
    """Per-stage and end-to-end timings for one candidate count."""
    rng = np.random.default_rng(config.seed + b)
    cands = _candidate_batch(log, predictor.graph.n_tiers, b, rng)
    repeats = config.repeats
    ref_repeats = max(repeats // 4, 3)

    encoder = predictor.encoder
    reference = reference_predictor(predictor)
    encode = _Timed(
        _time_ms(lambda: encoder.encode_candidates_shared(log, cands), repeats),
        _time_ms(
            lambda: reference.encoder.encode_candidates(log, cands), ref_repeats
        ),
    )

    x_rh1, x_lh1, x_rc = encoder.encode_candidates_shared(log, cands)
    in_fast = predictor._model_inputs(x_rh1, x_lh1, x_rc)
    x_rhb, x_lhb, _ = reference.encoder.encode_candidates(log, cands)
    in_ref = predictor._model_inputs(x_rhb, x_lhb, x_rc)
    cnn = _Timed(
        _time_ms(lambda: predictor.cnn.predict_candidates(in_fast), repeats),
        _time_ms(lambda: predictor.cnn.predict_with_latent(in_ref), ref_repeats),
    )

    _, latent = predictor.cnn.predict_candidates(in_fast)
    bt_in = predictor._bt_features(latent, x_rh1, x_lh1, x_rc)
    trees = _Timed(
        _time_ms(lambda: predictor.trees.predict_proba(bt_in), repeats),
        _time_ms(lambda: reference.trees.predict_proba_reference(bt_in), ref_repeats),
    )

    total = _Timed(
        _time_ms(lambda: predictor.predict_candidates(log, cands), repeats),
        _time_ms(lambda: reference.predict_candidates(log, cands), ref_repeats),
    )

    lat_fast, prob_fast = predictor.predict_candidates(log, cands)
    lat_ref, prob_ref = reference.predict_candidates(log, cands)
    equal = bool(
        np.array_equal(lat_fast, lat_ref) and np.array_equal(prob_fast, prob_ref)
    )

    return {
        "candidates": b,
        "encode": encode.as_dict(),
        "cnn": cnn.as_dict(),
        "trees": trees.as_dict(),
        "total": total.as_dict(),
        "bitwise_equal": equal,
    }


def bench_scheduler(predictor: HybridPredictor, config: BenchConfig) -> dict:
    """Replay one managed episode on the production and the reference
    scoring path.

    Decisions feed back into the simulator, so a single diverging
    decision would diverge every subsequent interval — trace equality is
    a strong end-to-end check.
    """
    spec = app_spec(config.app)
    graph = spec.graph_factory()
    lo, hi = spec.collection_load_range

    def run(fast: bool) -> tuple[list[np.ndarray], float]:
        cluster = make_cluster(graph, users=(lo + hi) / 2, seed=config.seed + 7)
        space = ActionSpace(graph.min_alloc(), graph.max_alloc())
        scorer = predictor if fast else reference_predictor(predictor)
        scheduler = OnlineScheduler(scorer, space, spec.qos)
        trace: list[np.ndarray] = []
        spent = 0.0
        for _ in range(config.decision_intervals):
            cluster.step(cluster.current_alloc)
            t0 = time.perf_counter()
            alloc = scheduler.decide(cluster.observed)
            spent += time.perf_counter() - t0
            if alloc is not None:
                cluster.step(alloc)
                trace.append(np.asarray(alloc, dtype=float))
        return trace, spent * 1e3 / max(config.decision_intervals, 1)

    trace_fast, ms_fast = run(fast=True)
    trace_ref, ms_ref = run(fast=False)

    identical = len(trace_fast) == len(trace_ref) and all(
        np.array_equal(a, b) for a, b in zip(trace_fast, trace_ref)
    )
    return {
        "decisions": len(trace_fast),
        "identical_traces": bool(identical),
        "fast_ms_per_decision": round(ms_fast, 3),
        "reference_ms_per_decision": round(ms_ref, 3),
        "speedup": round(ms_ref / ms_fast, 2) if ms_fast else 0.0,
    }


# ----------------------------------------------------------------------
# Training-path benchmark
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrainingBenchConfig:
    """Knobs of the training-path benchmark.

    Mirrors :class:`BenchConfig` for the *training* path: the histogram
    tree grower, the im2col CNN backprop, and the fused LSTM are each
    timed against their reference implementations, then the whole
    ``HybridPredictor.train`` runs once per path.  The dataset is
    synthetic but learnable (labels are a noisy function of the
    features), so trees split meaningfully and losses decrease — the
    mechanics under test are identical to training on collected data.
    """

    app: str = "social_network"
    n_samples: int = 1536
    n_timesteps: int = 5
    n_trees: int = 400
    cnn_epochs: int = 5
    batch_size: int = 256
    seed: int = 0
    repeats: int = 2
    output: str = "BENCH_training.json"


def make_training_dataset(config: TrainingBenchConfig) -> SinanDataset:
    """A synthetic but learnable dataset sized like collected data.

    Latency labels follow a smooth function of the aggregate load
    signal minus the candidate allocation (plus noise), violations
    threshold the p99 label against QoS — enough structure that the
    trees grow full depth and the CNN loss actually falls.
    """
    spec = app_spec(config.app)
    graph = spec.graph_factory()
    from repro.core.features import WindowEncoder

    f = WindowEncoder(graph, config.n_timesteps).n_channels
    n, t, tiers = config.n_samples, config.n_timesteps, graph.n_tiers
    m = len(_PERCENTILES)
    qos = spec.qos.latency_ms
    rng = np.random.default_rng(config.seed)

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


def bench_tree_fit(config: TrainingBenchConfig) -> dict:
    """Histogram grower vs reference grower on a bt-feature-sized task."""
    from repro.ml.boosted_trees import BoostedTrees, BoostedTreesConfig

    spec = app_spec(config.app)
    graph = spec.graph_factory()
    rng = np.random.default_rng(config.seed + 11)
    # Same feature dimension the trees see in the hybrid model:
    # latent + [rc, delta, util] per tier + latency percentiles.
    latent_dim = PredictorConfig().cnn.latent_dim
    d = latent_dim + 3 * graph.n_tiers + len(_PERCENTILES)
    n = config.n_samples
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.5 * X[:, 1] * X[:, 2] + 0.3 * rng.normal(size=n) > 0.4).astype(
        float
    )
    n_val = max(n // 10, 10)
    X_val = rng.normal(size=(n_val, d))
    y_val = (X_val[:, 0] + 0.5 * X_val[:, 1] * X_val[:, 2] > 0.4).astype(float)

    # Both paths grow the full budget (no early stop) so the timed work
    # is identical by construction.
    bt_cfg = BoostedTreesConfig(
        n_trees=config.n_trees, early_stopping_rounds=config.n_trees
    )

    def fit(fast: bool) -> BoostedTrees:
        tree_cls = BoostedTrees if fast else ReferenceBoostedTrees
        model = tree_cls(bt_cfg, seed=config.seed)
        model.fit(X, y, X_val, y_val)
        return model

    t0 = time.perf_counter()
    model_fast = fit(True)
    fast_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    model_ref = fit(False)
    ref_s = time.perf_counter() - t0

    margins_equal = bool(
        np.array_equal(
            model_fast.predict_margin(X_val), model_ref.predict_margin(X_val)
        )
    )
    return {
        "n_samples": n,
        "n_features": d,
        "n_trees": len(model_fast.trees),
        "fast_s": round(fast_s, 3),
        "reference_s": round(ref_s, 3),
        "speedup": round(ref_s / fast_s, 2) if fast_s else 0.0,
        "structures_equal": _tree_structures_equal(model_fast, model_ref),
        "margins_bitwise_equal": margins_equal,
    }


def bench_cnn_epochs(config: TrainingBenchConfig) -> dict:
    """im2col/fused training vs einsum/loop reference, same CNN fit."""
    from repro.ml.cnn import LatencyCNN
    from repro.ml.network import FitResult as _FitResult

    spec = app_spec(config.app)
    graph = spec.graph_factory()
    rng = np.random.default_rng(config.seed + 23)
    n, t, tiers = config.n_samples, config.n_timesteps, graph.n_tiers
    m = len(_PERCENTILES)
    cnn_seed = config.seed + 5

    from repro.core.features import WindowEncoder

    f = WindowEncoder(graph, t).n_channels

    def build() -> LatencyCNN:
        return LatencyCNN(
            n_tiers=tiers,
            n_timesteps=t,
            n_channels=f,
            n_percentiles=m,
            seed=cnn_seed,
            n_rc_features=2 * tiers,
        )

    inputs = (
        rng.normal(size=(n, f, tiers, t)),
        rng.normal(size=(n, t, m)),
        rng.normal(size=(n, 2 * tiers)),
    )
    targets = inputs[0].mean(axis=(1, 2, 3))[:, None] * np.ones(m) + rng.normal(
        0.0, 0.05, (n, m)
    )

    def fit(fast: bool) -> _FitResult:
        model = build()
        if not fast:
            use_reference_layers(model)
        return model.fit(
            inputs,
            targets,
            epochs=config.cnn_epochs,
            batch_size=config.batch_size,
            seed=config.seed,
            patience=0,
        )

    fit_fast = fit(True)
    fit_ref = fit(False)
    losses_close = bool(
        np.allclose(fit_fast.train_loss, fit_ref.train_loss, rtol=0, atol=1e-8)
    )
    fast_s = float(np.mean(fit_fast.epoch_time_s))
    ref_s = float(np.mean(fit_ref.epoch_time_s))
    return {
        "n_samples": n,
        "epochs": config.cnn_epochs,
        "fast_s_per_epoch": round(fast_s, 3),
        "reference_s_per_epoch": round(ref_s, 3),
        "speedup": round(ref_s / fast_s, 2) if fast_s else 0.0,
        "losses_close": losses_close,
        "max_loss_diff": float(
            np.max(np.abs(np.subtract(fit_fast.train_loss, fit_ref.train_loss)))
        ),
    }


def bench_end_to_end(config: TrainingBenchConfig, dataset: SinanDataset) -> dict:
    """One full ``HybridPredictor.train`` per path, timed."""
    spec = app_spec(config.app)

    def train(fast: bool) -> tuple[HybridPredictor, TrainingReport, float]:
        graph = spec.graph_factory()
        predictor = HybridPredictor(
            graph,
            spec.qos,
            PredictorConfig(
                n_timesteps=config.n_timesteps,
                epochs=config.cnn_epochs,
                batch_size=config.batch_size,
                patience=0,
                trees=BoostedTreesConfig(
                    n_trees=config.n_trees,
                    early_stopping_rounds=config.n_trees,
                ),
            ),
            seed=config.seed,
        )
        if not fast:
            use_reference_training(predictor)
        t0 = time.perf_counter()
        report = predictor.train(dataset)
        return predictor, report, time.perf_counter() - t0

    # Min over repeats per path: the training runs are seconds-long, so
    # one background hiccup would otherwise dominate the ratio.
    _, report_fast, fast_s = train(True)
    _, report_ref, ref_s = train(False)
    for _ in range(max(0, config.repeats - 1)):
        fast_s = min(fast_s, train(True)[2])
        ref_s = min(ref_s, train(False)[2])
    # The two paths differ by float rounding, so the trained models are
    # equivalent in quality, not bitwise: compare the reported metrics.
    rmse_close = bool(
        np.isclose(report_fast.rmse_val, report_ref.rmse_val, rtol=0.05, atol=1.0)
    )
    acc_close = bool(
        np.isclose(
            report_fast.bt_accuracy_val, report_ref.bt_accuracy_val, atol=0.05
        )
    )
    return {
        "n_samples": len(dataset),
        "n_trees": config.n_trees,
        "cnn_epochs": config.cnn_epochs,
        "fast_s": round(fast_s, 3),
        "reference_s": round(ref_s, 3),
        "speedup": round(ref_s / fast_s, 2) if fast_s else 0.0,
        "rmse_val_fast": round(report_fast.rmse_val, 3),
        "rmse_val_reference": round(report_ref.rmse_val, 3),
        "bt_accuracy_val_fast": round(report_fast.bt_accuracy_val, 4),
        "bt_accuracy_val_reference": round(report_ref.bt_accuracy_val, 4),
        "quality_close": rmse_close and acc_close,
    }


def run_training_bench(config: TrainingBenchConfig | None = None) -> dict:
    """Run the training benchmark and return (and optionally write) results."""
    config = config or TrainingBenchConfig()
    dataset = make_training_dataset(config)
    results = {
        "benchmark": "training-path",
        "app": config.app,
        "n_samples": config.n_samples,
        "window": config.n_timesteps,
        "n_trees": config.n_trees,
        "cnn_epochs": config.cnn_epochs,
        "seed": config.seed,
        "tree_fit": bench_tree_fit(config),
        "cnn_fit": bench_cnn_epochs(config),
        "end_to_end": bench_end_to_end(config, dataset),
    }
    results["equivalent"] = bool(
        results["tree_fit"]["structures_equal"]
        and results["tree_fit"]["margins_bitwise_equal"]
        and results["cnn_fit"]["losses_close"]
        and results["end_to_end"]["quality_close"]
    )
    if config.output:
        resolve_output(config.output).write_text(
            json.dumps(results, indent=2) + "\n"
        )
    return results


def format_training_bench(results: dict) -> str:
    """Human-readable summary of one ``run_training_bench`` result."""
    tf, cf, e2e = results["tree_fit"], results["cnn_fit"], results["end_to_end"]
    lines = [
        f"training-path benchmark — {results['app']} "
        f"({results['n_samples']} samples, {results['n_trees']} trees, "
        f"{results['cnn_epochs']} CNN epochs)",
        f"tree fit:   {tf['fast_s']:.2f}s fast vs {tf['reference_s']:.2f}s "
        f"reference ({tf['speedup']:.1f}x), structures "
        + ("equal" if tf["structures_equal"] else "DIFFER")
        + ", margins "
        + ("bitwise equal" if tf["margins_bitwise_equal"] else "DIFFER"),
        f"cnn epoch:  {cf['fast_s_per_epoch']:.2f}s fast vs "
        f"{cf['reference_s_per_epoch']:.2f}s reference ({cf['speedup']:.1f}x), "
        f"losses " + ("match" if cf["losses_close"] else "DIVERGED")
        + f" (max diff {cf['max_loss_diff']:.2e})",
        f"end-to-end: {e2e['fast_s']:.2f}s fast vs {e2e['reference_s']:.2f}s "
        f"reference ({e2e['speedup']:.1f}x), quality "
        + ("close" if e2e["quality_close"] else "DIVERGED"),
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Simulation-path benchmark
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SimBenchConfig:
    """Knobs of the simulation-path benchmark.

    Times full simulated episodes on the production-sized application
    (28 tiers for ``social_network``) on the batched-tick engine and on
    the per-tick reference loop, and checks the two produce bitwise-identical
    :class:`~repro.sim.telemetry.IntervalStats` across normal, bursty,
    and overload scenarios.  The default tick of 0.05 s (20 ticks per
    decision interval) is the high-resolution regime the fast path
    exists for: the reference's per-tick Python cost scales linearly
    with the tick count while the batched path's does not.
    """

    app: str = "social_network"
    intervals: int = 300
    tick: float = 0.05
    rps: float = 900.0
    repeats: int = 3
    seed: int = 0
    equivalence_intervals: int = 60
    output: str = "BENCH_sim.json"


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


def _sim_episode_inputs(graph, config: SimBenchConfig):
    base_alloc = np.full(graph.n_tiers, 2.0)
    rates = np.full(graph.n_types, config.rps / graph.n_types)
    return base_alloc, rates


def _run_sim_episode(engine, intervals: int, base_alloc, rates) -> float:
    """Drive one episode with deterministic load/allocation sweeps and
    return its wall time; the sweeps cross the latency knee so queues,
    drops, and the sampler's drop path are all exercised."""
    phase = np.arange(base_alloc.size)
    t0 = time.perf_counter()
    for i in range(intervals):
        engine.run_interval(
            base_alloc * (1.0 + 0.1 * np.sin(i + phase)),
            rates * (1.0 + 0.2 * np.sin(i / 3.0)),
        )
    return time.perf_counter() - t0


def bench_sim_episode(config: SimBenchConfig) -> dict:
    """Episode wall time, fast path vs reference (min over repeats)."""
    from repro.sim.engine import EngineConfig, QueueingEngine

    spec = app_spec(config.app)
    graph = spec.graph_factory()
    base_alloc, rates = _sim_episode_inputs(graph, config)

    def timed(fast: bool) -> float:
        best = float("inf")
        engine_cls = QueueingEngine if fast else ReferenceQueueingEngine
        for _ in range(max(config.repeats, 1)):
            engine = engine_cls(
                graph, EngineConfig(tick=config.tick), seed=config.seed
            )
            # Warm-up interval: builds the tick plan and (first time
            # only) compiles the C kernel, outside the timed region.
            engine.run_interval(base_alloc, rates)
            best = min(
                best,
                _run_sim_episode(engine, config.intervals, base_alloc, rates),
            )
        return best

    fast_s = timed(True)
    ref_s = timed(False)
    return {
        "intervals": config.intervals,
        "fast_s": round(fast_s, 4),
        "reference_s": round(ref_s, 4),
        "fast_ms_per_interval": round(fast_s / config.intervals * 1e3, 4),
        "reference_ms_per_interval": round(ref_s / config.intervals * 1e3, 4),
        "intervals_per_s_fast": round(config.intervals / fast_s, 1),
        "intervals_per_s_reference": round(config.intervals / ref_s, 1),
        "speedup": round(ref_s / fast_s, 2) if fast_s else 0.0,
    }


def bench_sim_equivalence(config: SimBenchConfig) -> dict:
    """Bitwise fast-vs-reference check across engine scenarios.

    Each scenario runs a fresh fast engine and a fresh reference engine
    from the same seed and compares every ``IntervalStats`` field of
    every interval, the engines' internal state vectors, and the final
    RNG state — any divergence in the RNG consumption plan would show up
    here even if the visible stats happened to agree.
    """
    from repro.sim.engine import EngineConfig, QueueingEngine

    spec = app_spec(config.app)
    graph = spec.graph_factory()
    base_alloc, rates = _sim_episode_inputs(graph, config)
    phase = np.arange(graph.n_tiers)
    scenarios = {
        "normal": {},
        "overload": {"max_queue": 30.0},
        "bursty": {"spike_prob": 0.5, "spike_mult_range": (2.0, 3.0)},
    }
    results: dict[str, bool] = {}
    for name, overrides in scenarios.items():
        engines = [
            engine_cls(
                graph,
                EngineConfig(tick=config.tick, **overrides),
                seed=config.seed + 13,
            )
            for engine_cls in (QueueingEngine, ReferenceQueueingEngine)
        ]
        ok = True
        for i in range(config.equivalence_intervals):
            allocs = base_alloc * (1.0 + 0.1 * np.sin(i + phase))
            tr = rates * (1.0 + 0.2 * np.sin(i / 3.0))
            sf, sr = (e.run_interval(allocs, tr) for e in engines)
            if not _interval_stats_equal(sf, sr):
                ok = False
                break
        fast_e, ref_e = engines
        ok = ok and all(
            np.array_equal(getattr(fast_e, attr), getattr(ref_e, attr))
            for attr in ("queue", "_busy_ewma", "_busy_frac", "_demand", "_sojourn")
        )
        ok = ok and fast_e.time == ref_e.time
        ok = (
            ok
            and fast_e._rng.bit_generator.state == ref_e._rng.bit_generator.state
        )
        results[name] = bool(ok)
    results["all"] = all(results.values())
    return results


def run_sim_bench(config: SimBenchConfig | None = None) -> dict:
    """Run the simulation benchmark and return (and optionally write)
    results."""
    config = config or SimBenchConfig()
    spec = app_spec(config.app)
    graph = spec.graph_factory()
    results = {
        "benchmark": "sim-path",
        "app": config.app,
        "n_tiers": graph.n_tiers,
        "tick": config.tick,
        "ticks_per_interval": max(int(round(1.0 / config.tick)), 1),
        "rps": config.rps,
        "repeats": config.repeats,
        "seed": config.seed,
        "episode": bench_sim_episode(config),
        "equivalence": bench_sim_equivalence(config),
    }
    if config.output:
        resolve_output(config.output).write_text(
            json.dumps(results, indent=2) + "\n"
        )
    return results


# ----------------------------------------------------------------------
# Episode benchmark (end-to-end control loop + event engine)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EpisodeBenchConfig:
    """Knobs of the episode benchmark.

    Times the full Sinan-attached episode loop — fluid simulator steps
    plus scheduler decisions — on the production stack against the
    reference control and scoring stack from :mod:`tests.oracles`
    (Action-list candidates, list-based ``_select``, per-candidate model
    path; both on the batched-tick simulator), the
    struct-of-arrays event engine against ``run_reference``, and the
    per-decision wall time of ``OnlineScheduler.decide`` against the
    sum of its model components at B=64.  Equivalence gates (decision
    traces, telemetry, event summaries, RNG state) run in normal and
    fault-profile episodes.
    """

    app: str = "social_network"
    decision_intervals: int = 25
    repeats: int = 3
    seed: int = 0
    n_trees: int = 300
    tree_depth: int = 6
    n_timesteps: int = 5
    component_candidates: int = 64
    component_repeats: int = 30
    decide_repeats: int = 30
    equivalence_intervals: int = 12
    fault_profile: str = "chaos"
    event_alloc: float = 1.0
    event_rps: float = 120.0
    event_duration: float = 20.0
    event_repeats: int = 6
    output: str = "BENCH_episode.json"


def _component_config(config: EpisodeBenchConfig) -> BenchConfig:
    """The decision-path ``BenchConfig`` matching an episode config."""
    return BenchConfig(
        app=config.app,
        n_timesteps=config.n_timesteps,
        repeats=config.component_repeats,
        seed=config.seed,
        n_trees=config.n_trees,
        tree_depth=config.tree_depth,
        decision_intervals=config.decision_intervals,
        output="",
    )


def _run_episode(
    predictor: HybridPredictor,
    spec,
    graph,
    fast: bool,
    intervals: int,
    seed: int,
    fault_profile: str | None = None,
):
    """Replay one managed episode end to end.

    ``fast=False`` swaps the whole decision stack for its oracles: the
    per-candidate scoring path and the Action-list candidate/select
    path.  Returns ``(trace, telemetry, wall_s)`` where the wall time covers
    simulator steps *and* decisions — the Sinan-attached throughput the
    benchmark reports.
    """
    lo, hi = spec.collection_load_range
    cluster = make_cluster(
        graph,
        users=(lo + hi) / 2,
        seed=seed,
        fault_profile=fault_profile,
    )
    space = ActionSpace(graph.min_alloc(), graph.max_alloc())
    if fast:
        scheduler = OnlineScheduler(predictor, space, spec.qos)
    else:
        scheduler = ReferenceScheduler(
            reference_predictor(predictor), space, spec.qos
        )
    trace: list[np.ndarray] = []
    t0 = time.perf_counter()
    for _ in range(intervals):
        cluster.step(cluster.current_alloc)
        alloc = scheduler.decide(cluster.observed)
        if alloc is not None:
            cluster.step(alloc)
            trace.append(np.asarray(alloc, dtype=float).copy())
    wall = time.perf_counter() - t0
    return trace, cluster.telemetry, wall


def bench_episode_throughput(
    predictor: HybridPredictor, spec, graph, config: EpisodeBenchConfig
) -> dict:
    """End-to-end episode wall time, full-fast vs full-reference.

    Decisions feed back into the simulator, so the identical-trace
    check also guards the fast control loop end to end: one diverging
    decision would diverge every subsequent interval.
    """

    def best(fast: bool) -> tuple[float, list[np.ndarray]]:
        walls, trace = [], []
        for r in range(max(config.repeats, 1)):
            trace, _, wall = _run_episode(
                predictor, spec, graph, fast,
                config.decision_intervals, config.seed + 7,
            )
            walls.append(wall)
        return min(walls), trace

    fast_s, trace_fast = best(True)
    ref_s, trace_ref = best(False)

    identical = len(trace_fast) == len(trace_ref) and all(
        np.array_equal(a, b) for a, b in zip(trace_fast, trace_ref)
    )
    n = config.decision_intervals
    return {
        "intervals": n,
        "fast_s": round(fast_s, 4),
        "reference_s": round(ref_s, 4),
        "fast_ms_per_interval": round(fast_s / n * 1e3, 3),
        "reference_ms_per_interval": round(ref_s / n * 1e3, 3),
        "intervals_per_s_fast": round(n / fast_s, 2),
        "intervals_per_s_reference": round(n / ref_s, 2),
        "speedup": round(ref_s / fast_s, 2) if fast_s else 0.0,
        "identical_traces": bool(identical),
    }


def bench_event_run(config: EpisodeBenchConfig) -> dict:
    """``EventDrivenEngine.run`` vs ``run_reference`` (min of each over
    repeats that alternate the two) on the production-sized graph near
    saturation, where the per-event Python cost of the reference
    dominates."""
    from repro.sim.event_engine import EventDrivenEngine, EventEngineConfig

    spec = app_spec(config.app)
    graph = spec.graph_factory()
    allocs = np.full(graph.n_tiers, config.event_alloc)
    rates = np.full(graph.n_types, config.event_rps / graph.n_types)

    def timed(method: str) -> float:
        engine = EventDrivenEngine(
            graph, EventEngineConfig(), seed=config.seed + 3
        )
        t0 = time.perf_counter()
        getattr(engine, method)(allocs, rates, config.event_duration)
        return time.perf_counter() - t0

    # Alternate the two inside each repeat, so a busy stretch of a
    # shared host slows both sides rather than one.
    fast_s = ref_s = float("inf")
    for _ in range(max(config.event_repeats, 1)):
        fast_s = min(fast_s, timed("run"))
        ref_s = min(ref_s, timed("run_reference"))
    probe = EventDrivenEngine(graph, EventEngineConfig(), seed=config.seed + 3)
    summary = probe.run(allocs, rates, config.event_duration)
    n_req = int(summary["n_requests"])
    return {
        "duration_s": config.event_duration,
        "rps": config.event_rps,
        "alloc": config.event_alloc,
        "n_requests": n_req,
        "fast_ms": round(fast_s * 1e3, 3),
        "reference_ms": round(ref_s * 1e3, 3),
        "requests_per_s_fast": round(n_req / fast_s, 1),
        "requests_per_s_reference": round(n_req / ref_s, 1),
        "speedup": round(ref_s / fast_s, 2) if fast_s else 0.0,
    }


def bench_decide_overhead(
    predictor: HybridPredictor, spec, graph, config: EpisodeBenchConfig
) -> dict:
    """``scheduler.decide`` wall time vs the sum of its model
    components at the same candidate count.

    The ratio is the control-loop overhead the matrix candidate/select
    path exists to kill: anything above ~1.0 is pure-Python work around
    the models (candidate enumeration, selection, bookkeeping).  Decide
    is timed per-decision inside a live episode (where steady-state
    decisions score exactly B=64 candidates on ``social_network``:
    scale-ups/holds only, reclamation gated by the cooldown) and, like
    every other timing here (:func:`_time_ms`), the minimum wall time
    is kept; decisions at other candidate counts — e.g. the first one,
    which also enumerates scale-downs — are reported but excluded from
    the ratio, which would otherwise compare different batch sizes.
    """
    bcfg = _component_config(config)
    log = make_bench_log(bcfg)
    components = bench_components(
        predictor, log, config.component_candidates, bcfg
    )
    components_ms = (
        components["encode"]["fast_ms"]
        + components["cnn"]["fast_ms"]
        + components["trees"]["fast_ms"]
    )

    lo, hi = spec.collection_load_range
    batch_sizes: list[int] = []
    original = predictor.predict_candidates

    def spying_predict(log_, cands):
        batch_sizes.append(len(cands))
        return original(log_, cands)

    decide_ms = float("inf")
    counted = 0
    predictor.encoder.invalidate_cache()
    try:
        predictor.predict_candidates = spying_predict
        for _ in range(max(config.decide_repeats // 25, 1)):
            cluster = make_cluster(
                graph, users=(lo + hi) / 2, seed=config.seed + 7
            )
            space = ActionSpace(graph.min_alloc(), graph.max_alloc())
            scheduler = OnlineScheduler(predictor, space, spec.qos)
            for _ in range(25):
                cluster.step(cluster.current_alloc)
                observed = cluster.observed
                n_before = len(batch_sizes)
                t0 = time.perf_counter()
                alloc = scheduler.decide(observed)
                elapsed = time.perf_counter() - t0
                scored = batch_sizes[n_before:]
                if scored == [config.component_candidates]:
                    decide_ms = min(decide_ms, elapsed * 1e3)
                    counted += 1
                if alloc is not None:
                    cluster.step(alloc)
    finally:
        predictor.__dict__.pop("predict_candidates", None)

    ratio = decide_ms / components_ms if components_ms else 0.0
    return {
        "component_candidates": config.component_candidates,
        "decisions_at_b": counted,
        "candidate_counts_seen": sorted(set(batch_sizes)),
        "decide_ms": round(decide_ms, 4),
        "components_sum_ms": round(components_ms, 4),
        "overhead_ratio": round(ratio, 3),
        "components": components,
    }


def bench_episode_equivalence(
    predictor: HybridPredictor, spec, graph, config: EpisodeBenchConfig
) -> dict:
    """Bitwise production-vs-reference gates for the whole episode stack.

    Control loop: full episodes (normal and fault-injected) on the
    production and the reference stack must produce identical decision traces *and*
    identical telemetry on every interval.  Event engine: ``run`` vs
    ``run_reference`` from the same seed must agree on every summary
    field and leave the RNG bit-generator in the same state, in a
    normal and an overloaded (drop-heavy) scenario.
    """
    from repro.sim.event_engine import EventDrivenEngine, EventEngineConfig

    results: dict[str, bool] = {}
    for name, profile in (("normal", None),
                          (config.fault_profile, config.fault_profile)):
        trace_f, tel_f, _ = _run_episode(
            predictor, spec, graph, True,
            config.equivalence_intervals, config.seed + 31, profile,
        )
        trace_r, tel_r, _ = _run_episode(
            predictor, spec, graph, False,
            config.equivalence_intervals, config.seed + 31, profile,
        )
        ok = len(trace_f) == len(trace_r) and all(
            np.array_equal(a, b) for a, b in zip(trace_f, trace_r)
        )
        ok = ok and len(tel_f) == len(tel_r) and all(
            _interval_stats_equal(tel_f[i], tel_r[i])
            for i in range(len(tel_f))
        )
        results[f"episode_{name}"] = bool(ok)

    allocs = np.full(graph.n_tiers, config.event_alloc)
    rates = np.full(graph.n_types, config.event_rps / graph.n_types)
    scenarios = {
        "normal": ({}, allocs),
        "overload": ({"max_queue": 100}, allocs * 0.7),
    }
    for name, (overrides, alloc) in scenarios.items():
        fast_e, ref_e = (
            EventDrivenEngine(
                graph, EventEngineConfig(**overrides), seed=config.seed + 13
            )
            for _ in range(2)
        )
        sf = fast_e.run(alloc, rates, config.event_duration)
        sr = ref_e.run_reference(alloc, rates, config.event_duration)
        ok = set(sf) == set(sr) and all(
            np.array_equal(np.asarray(sf[k]), np.asarray(sr[k]), equal_nan=True)
            for k in sf
        )
        ok = ok and fast_e._rng.bit_generator.state == ref_e._rng.bit_generator.state
        results[f"event_{name}"] = bool(ok)
    results["all"] = all(results.values())
    return results


def run_episode_bench(config: EpisodeBenchConfig | None = None) -> dict:
    """Run the episode benchmark and return (and optionally write)
    results."""
    config = config or EpisodeBenchConfig()
    spec = app_spec(config.app)
    graph = spec.graph_factory()
    predictor = make_synthetic_predictor(_component_config(config))

    episode = bench_episode_throughput(predictor, spec, graph, config)
    event = bench_event_run(config)
    decision = bench_decide_overhead(predictor, spec, graph, config)
    equivalence = bench_episode_equivalence(predictor, spec, graph, config)
    results = {
        "benchmark": "episode-path",
        "app": config.app,
        "n_tiers": graph.n_tiers,
        "n_trees": config.n_trees,
        "window": config.n_timesteps,
        "seed": config.seed,
        "repeats": config.repeats,
        "fault_profile": config.fault_profile,
        "episode": episode,
        "event_engine": event,
        "decision": decision,
        "equivalence": equivalence,
        "equivalent": bool(
            equivalence["all"]
            and episode["identical_traces"]
            and decision["components"]["bitwise_equal"]
        ),
    }
    if config.output:
        resolve_output(config.output).write_text(
            json.dumps(results, indent=2) + "\n"
        )
    return results


# ---------------------------------------------------------------------
# Fan-out sweep benchmark: warm worker pool vs cold per-task-pickle path


@dataclass(frozen=True)
class SweepBenchConfig:
    """Knobs of the fan-out sweep benchmark.

    Times a multi-episode on-policy collection sweep three ways — the
    pre-pool baseline (fresh cold pool, full predictor pickled into
    every task), the warm shared pool with one-time shared-memory model
    broadcast, and the serial inline path — then measures per-task
    payload bytes, warm-pool reuse across successive calls, and the
    bit-identity contract (pooled == serial == cold, in normal and
    fault-injected episodes).
    """

    app: str = "social_network"
    episodes: int = 32
    """Episodes in the timed collection sweep (the paper's point: sweep
    wall-clock, not any single episode, dominates collection cost)."""
    seconds: int = 12
    """Decision intervals per episode."""
    jobs: int = 0
    """Pool workers for the timed sweeps (``0`` = one per CPU)."""
    seed: int = 0
    n_trees: int = 300
    tree_depth: int = 6
    n_timesteps: int = 5
    equivalence_episodes: int = 3
    equivalence_seconds: int = 8
    fault_profile: str = "chaos"
    output: str = "BENCH_sweep.json"


_SWEEP_DATASET_FIELDS = ("X_RH", "X_LH", "X_RC", "y_lat", "y_viol")


def _sweep_component_config(config: SweepBenchConfig) -> BenchConfig:
    return BenchConfig(
        app=config.app,
        n_timesteps=config.n_timesteps,
        seed=config.seed,
        n_trees=config.n_trees,
        tree_depth=config.tree_depth,
        output="",
    )


def _sweep_bench_tasks(
    predictor: HybridPredictor, spec, graph,
    n_episodes: int, seconds: int, seed: int,
):
    """On-policy collection tasks across the app's load range — the
    exact task shape ``pipeline._collect_on_policy`` fans out."""
    from repro.harness.parallel import EpisodeTask
    from repro.harness.pipeline import _on_policy_episode

    low, high = spec.collection_load_range
    loads = np.linspace(low, high, n_episodes)
    return [
        EpisodeTask(
            index=i,
            label=f"bench-sweep[users={users:g}]",
            fn=_on_policy_episode,
            kwargs=dict(
                predictor=predictor,
                graph=graph,
                qos=spec.qos,
                users=float(users),
                seconds=seconds,
                seed=seed + i,
            ),
        )
        for i, users in enumerate(loads)
    ]


def _sweep_datasets_equal(a, b) -> bool:
    return all(
        np.array_equal(
            getattr(a, name), getattr(b, name), equal_nan=True
        )
        for name in _SWEEP_DATASET_FIELDS
    )


def _sweep_results_equal(results_a, results_b) -> bool:
    return len(results_a) == len(results_b) and all(
        _sweep_datasets_equal(a, b) for a, b in zip(results_a, results_b)
    )


def bench_sweep_throughput(
    predictor: HybridPredictor, spec, graph, config: SweepBenchConfig
) -> dict:
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

    n_workers = resolve_jobs(config.jobs)
    tasks = _sweep_bench_tasks(
        predictor, spec, graph, config.episodes, config.seconds, config.seed
    )

    t0 = time.perf_counter()
    with WorkerPool(jobs=n_workers, broadcast=False) as cold:
        baseline = run_episodes(tasks, jobs=n_workers, pool=cold)
    baseline_s = time.perf_counter() - t0
    baseline.raise_if_no_results()

    with WorkerPool(jobs=n_workers) as warm:
        t0 = time.perf_counter()
        run_episodes(tasks[:n_workers], jobs=n_workers, pool=warm)
        warm_spinup_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        pooled = run_episodes(tasks, jobs=n_workers, pool=warm)
        warm_s = time.perf_counter() - t0
    pooled.raise_if_no_results()

    return {
        "episodes": config.episodes,
        "seconds_per_episode": config.seconds,
        "workers": n_workers,
        "baseline_cold_s": round(baseline_s, 3),
        "warm_s": round(warm_s, 3),
        "warm_spinup_s": round(warm_spinup_s, 3),
        "speedup": round(baseline_s / warm_s, 2) if warm_s else 0.0,
        "pool_reused": bool(pooled.pool_reused),
        "broadcast_publishes": pooled.broadcast_publishes,
        "model_cache_hits": pooled.model_cache_hits,
        "identical_results": _sweep_results_equal(
            baseline.results, pooled.results
        ),
    }


def bench_sweep_payload(
    predictor: HybridPredictor, spec, graph, config: SweepBenchConfig
) -> dict:
    """Per-task payload bytes: full-predictor pickle vs ``ModelRef``."""
    import pickle

    from repro.harness.pool import WorkerPool

    task = _sweep_bench_tasks(
        predictor, spec, graph, 1, config.seconds, config.seed
    )[0]
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


def bench_sweep_reuse(
    predictor: HybridPredictor, spec, graph, config: SweepBenchConfig
) -> dict:
    """Two successive sweeps: warm pool reuse vs two cold pools.

    The second warm call must report ``pool_reused`` with zero new
    broadcast publishes, and both protocols must agree bit-for-bit —
    the warm pool is a pure wall-clock optimization.
    """
    from repro.harness.parallel import run_episodes
    from repro.harness.pool import WorkerPool

    n = max(2, config.equivalence_episodes)
    first = _sweep_bench_tasks(
        predictor, spec, graph, n, config.equivalence_seconds, config.seed
    )
    second = _sweep_bench_tasks(
        predictor, spec, graph, n, config.equivalence_seconds,
        config.seed + 1000,
    )

    cold_results = []
    t0 = time.perf_counter()
    for tasks in (first, second):
        with WorkerPool(jobs=2, broadcast=False) as cold:
            summary = run_episodes(tasks, jobs=2, pool=cold)
            cold_results.append(summary.results)
    cold_s = time.perf_counter() - t0

    warm_results = []
    t0 = time.perf_counter()
    with WorkerPool(jobs=2) as warm:
        first_summary = run_episodes(first, jobs=2, pool=warm)
        second_summary = run_episodes(second, jobs=2, pool=warm)
        warm_results = [first_summary.results, second_summary.results]
    warm_s = time.perf_counter() - t0

    return {
        "episodes_per_sweep": n,
        "two_cold_pools_s": round(cold_s, 3),
        "one_warm_pool_s": round(warm_s, 3),
        "second_call_reused": bool(second_summary.pool_reused),
        "second_call_publishes": second_summary.broadcast_publishes,
        "identical_results": all(
            _sweep_results_equal(c, w)
            for c, w in zip(cold_results, warm_results)
        ),
    }


def bench_sweep_equivalence(
    predictor: HybridPredictor, spec, graph, config: SweepBenchConfig
) -> dict:
    """Bit-identity gates: pooled == serial == cold per-task path.

    Collection episodes (normal) and resilience cells (under the fault
    profile, sinan + a model-free manager) must produce byte-identical
    results no matter which execution substrate ran them.
    """
    from dataclasses import asdict

    from repro.harness.parallel import EpisodeTask, run_episodes
    from repro.harness.pool import WorkerPool
    from repro.harness.resilience import _resilience_episode

    results: dict[str, bool] = {}

    tasks = _sweep_bench_tasks(
        predictor, spec, graph, config.equivalence_episodes,
        config.equivalence_seconds, config.seed + 17,
    )
    serial = run_episodes(tasks, jobs=1)
    with WorkerPool(jobs=2) as warm:
        pooled = run_episodes(tasks, jobs=2, pool=warm)
    with WorkerPool(jobs=2, broadcast=False) as cold:
        cold_run = run_episodes(tasks, jobs=2, pool=cold)
    results["collection_serial_vs_warm"] = _sweep_results_equal(
        serial.results, pooled.results
    )
    results["collection_serial_vs_cold"] = _sweep_results_equal(
        serial.results, cold_run.results
    )

    users = float(np.mean(spec.collection_load_range))
    fault_tasks = [
        EpisodeTask(
            index=i,
            label=f"bench-fault[{manager}]",
            fn=_resilience_episode,
            kwargs=dict(
                app=config.app,
                manager_name=manager,
                profile_name=config.fault_profile,
                users=users,
                duration=config.equivalence_seconds,
                seed=config.seed + 29,
                warmup=2,
                predictor=predictor if manager == "sinan" else None,
            ),
        )
        for i, manager in enumerate(("sinan", "static"))
    ]
    fault_serial = run_episodes(fault_tasks, jobs=1)
    with WorkerPool(jobs=2) as warm:
        fault_pooled = run_episodes(fault_tasks, jobs=2, pool=warm)
    results[f"fault_{config.fault_profile}_serial_vs_warm"] = (
        len(fault_serial.results) == len(fault_pooled.results)
        and all(
            asdict(a) == asdict(b)
            for a, b in zip(fault_serial.results, fault_pooled.results)
        )
    )
    results["all"] = all(results.values())
    return results


def run_sweep_bench(config: SweepBenchConfig | None = None) -> dict:
    """Run the fan-out sweep benchmark and return (and optionally
    write) results."""
    config = config or SweepBenchConfig()
    spec = app_spec(config.app)
    graph = spec.graph_factory()
    predictor = make_synthetic_predictor(_sweep_component_config(config))

    throughput = bench_sweep_throughput(predictor, spec, graph, config)
    payload = bench_sweep_payload(predictor, spec, graph, config)
    reuse = bench_sweep_reuse(predictor, spec, graph, config)
    equivalence = bench_sweep_equivalence(predictor, spec, graph, config)
    results = {
        "benchmark": "fanout-sweep",
        "app": config.app,
        "n_tiers": graph.n_tiers,
        "n_trees": config.n_trees,
        "seed": config.seed,
        "fault_profile": config.fault_profile,
        "throughput": throughput,
        "payload": payload,
        "reuse": reuse,
        "equivalence": equivalence,
        "equivalent": bool(
            equivalence["all"]
            and throughput["identical_results"]
            and reuse["identical_results"]
        ),
    }
    if config.output:
        resolve_output(config.output).write_text(
            json.dumps(results, indent=2) + "\n"
        )
    return results


def run_bench(config: BenchConfig | None = None) -> dict:
    """Run the full benchmark and return (and optionally write) results."""
    config = config or BenchConfig()
    spec = app_spec(config.app)
    graph = spec.graph_factory()
    predictor = make_synthetic_predictor(config)
    log = make_bench_log(config)

    results = {
        "benchmark": "decision-path",
        "app": config.app,
        "n_tiers": graph.n_tiers,
        "window": config.n_timesteps,
        "n_trees": config.n_trees,
        "seed": config.seed,
        "repeats": config.repeats,
        "components": [
            bench_components(predictor, log, b, config)
            for b in config.candidate_counts
        ],
        "scheduler": bench_scheduler(predictor, config),
    }
    if config.output:
        resolve_output(config.output).write_text(
            json.dumps(results, indent=2) + "\n"
        )
    return results


__all__ = [
    "BenchConfig",
    "repo_root",
    "resolve_output",
    "run_bench",
    "make_synthetic_predictor",
    "make_bench_log",
    "bench_components",
    "bench_scheduler",
    "TrainingBenchConfig",
    "make_training_dataset",
    "run_training_bench",
    "format_training_bench",
    "bench_tree_fit",
    "bench_cnn_epochs",
    "bench_end_to_end",
    "SimBenchConfig",
    "run_sim_bench",
    "bench_sim_episode",
    "bench_sim_equivalence",
    "EpisodeBenchConfig",
    "run_episode_bench",
    "SweepBenchConfig",
    "run_sweep_bench",
    "bench_sweep_throughput",
    "bench_sweep_payload",
    "bench_sweep_reuse",
    "bench_sweep_equivalence",
    "bench_episode_throughput",
    "bench_event_run",
    "bench_decide_overhead",
    "bench_episode_equivalence",
]
