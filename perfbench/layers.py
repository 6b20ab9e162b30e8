"""Which public functions the traced run wraps, and the per-layer metrics.

Loop layers report self time per decision interval of the timed loop
(``*.self_ms``); set-up layers report self time per set-up
(``*.self_s``).  Counts are per pass of the fixed episode set or per
set-up, so they repeat exactly for a seed.  NOTES.md maps every metric
to the end-to-end metric it should move.
"""

from __future__ import annotations

import numpy as np

from perfbench.tracing import Target, self_times
from repro.baselines.autoscale import AutoScale
from repro.core.actions import ActionSpace
from repro.core.features import WindowEncoder
from repro.core.predictor import HybridPredictor
from repro.core.scheduler import OnlineScheduler
from repro.harness import parallel, pipeline
from repro.harness.pool import WorkerPool
from repro.ml.boosted_trees import BoostedTrees
from repro.ml.cnn import LatencyCNN
from repro.sim.cluster import ClusterSimulator
from repro.sim.engine import QueueingEngine
from repro.sim.faults import FaultInjector
from repro.tenancy.arbiter import CreditArbiter
from repro.tenancy.simulator import MultiTenantSimulator
from repro.tenancy.tenant import Tenant


def _corrupted(result, args) -> float:
    """1 when ``FaultInjector.observe`` dropped or altered the interval."""
    return float(result is None or result is not args[1])


def setup_targets() -> list[Target]:
    """Layers of cold collection and training."""
    return [
        Target(pipeline, "collect_training_data", "collect",
               sample=lambda result, args: len(result)),
        Target(HybridPredictor, "train", "pipeline.train"),
        Target(LatencyCNN, "fit", "cnn.fit",
               sample=lambda result, args: result.epochs_run),
        Target(BoostedTrees, "fit", "trees.fit"),
        Target(pipeline, "run_episodes", "pipeline.on_policy"),
    ]


def loop_targets() -> list[Target]:
    """Layers of the decision loop, the simulator and the tenancy layer."""
    return [
        Target(OnlineScheduler, "decide", "scheduler.decide"),
        Target(ActionSpace, "candidates_fast", "actions.candidates",
               sample=lambda result, args: len(result)),
        Target(HybridPredictor, "predict_candidates", "predictor.score"),
        Target(WindowEncoder, "encode_candidates_shared", "features.encode"),
        Target(LatencyCNN, "predict_candidates", "cnn.predict"),
        Target(BoostedTrees, "predict_proba", "trees.predict"),
        Target(ClusterSimulator, "step", "sim.step"),
        Target(QueueingEngine, "run_interval", "sim.engine"),
        Target(FaultInjector, "observe", "faults.observe", sample=_corrupted),
        Target(AutoScale, "decide", "autoscale.decide"),
        Target(CreditArbiter, "arbitrate", "arbiter.arbitrate",
               sample=lambda result, args: result.contended),
        Target(MultiTenantSimulator, "step", "tenancy.step"),
        Target(Tenant, "request", "tenancy.request"),
        Target(Tenant, "apply", "tenancy.apply"),
    ]


def pool_targets() -> list[Target]:
    """Parent-side fan-out layers of the multi-tenant sweep."""
    return [
        Target(parallel, "run_episodes", "pool.run_episodes"),
        Target(WorkerPool, "run", "pool.run"),
    ]


#: Per-interval loop metrics: metric -> span names whose self time it sums.
LOOP_SELF_MS = {
    "scheduler.decide.self_ms": ("scheduler.decide",),
    "actions.candidates.self_ms": ("actions.candidates",),
    "predictor.score.self_ms": ("predictor.score",),
    "features.encode.self_ms": ("features.encode",),
    "cnn.predict.self_ms": ("cnn.predict",),
    "trees.predict.self_ms": ("trees.predict",),
    "sim.step.self_ms": ("sim.step",),
    "sim.engine.self_ms": ("sim.engine",),
    "faults.observe.self_ms": ("faults.observe",),
    "autoscale.decide.self_ms": ("autoscale.decide",),
    "arbiter.arbitrate.self_ms": ("arbiter.arbitrate",),
    "tenancy.step.self_ms": ("tenancy.step", "tenancy.request", "tenancy.apply"),
    "episode.self_ms": ("episode",),
}

#: Per-set-up metrics: metric -> span names whose self time it sums.
SETUP_SELF_S = {
    "collect.self_s": ("collect",),
    "pipeline.train.self_s": ("pipeline.train",),
    "cnn.fit.self_s": ("cnn.fit",),
    "trees.fit.self_s": ("trees.fit",),
    "pipeline.on_policy.self_s": ("pipeline.on_policy",),
    "setup.self_s": ("setup",),
}


def _is_loop(ctx: str) -> bool:
    return ctx.startswith(("loop", "mt"))


def _is_setup(ctx: str) -> bool:
    return ctx.startswith("setup")


def _samples(traces, name: str, keep) -> list[float]:
    return [v for _, samples in traces for ctx, v in samples.get(name, ()) if keep(ctx)]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(untraced, traced, n_setups: int, workers: int,
                      c_kernel: bool) -> dict[str, float]:
    """Every per-layer metric of one traced run (0 where a layer is unused)."""
    traces = traced.worker_traces
    loop_self: dict[str, float] = {}
    for spans, _ in traces:
        for name, secs in self_times(spans, _is_loop).items():
            loop_self[name] = loop_self.get(name, 0.0) + secs
    setup_self = self_times(traced.spans, _is_setup)

    per_interval = 1e3 / traced.intervals
    metrics = {
        name: sum(loop_self.get(s, 0.0) for s in spans) * per_interval
        for name, spans in LOOP_SELF_MS.items()
    }
    metrics.update({
        name: sum(setup_self.get(s, 0.0) for s in spans) / n_setups
        for name, spans in SETUP_SELF_S.items()
    })

    counts = untraced.counts
    decisions = counts.get("decisions", 0)
    scored = counts.get("scored", 0)
    metrics.update({
        "scheduler.scored_share": _share(scored, decisions),
        "scheduler.fallback_share": _share(counts.get("fallback", 0), decisions),
        "scheduler.boost_share": _share(counts.get("boost", 0), decisions),
        "scheduler.useful_score_share": _share(counts.get("useful", 0), scored),
        "scheduler.clipped_share": _share(counts.get("clipped", 0), decisions),
    })

    menu = _samples(traces, "actions.candidates", _is_loop)
    corrupted = _samples(traces, "faults.observe", _is_loop)
    contended = _samples(traces, "arbiter.arbitrate", _is_loop)
    setup_traces = [(traced.spans, traced.samples)]
    metrics.update({
        "actions.candidates_per_decision_p50": float(np.median(menu)) if menu else 0.0,
        "actions.candidates_per_decision_max": float(max(menu)) if menu else 0.0,
        "cnn.fit.epochs": sum(_samples(setup_traces, "cnn.fit", _is_setup)) / n_setups,
        "collect.samples": sum(_samples(setup_traces, "collect", _is_setup)) / n_setups,
        "trees.count": traced.trees_count,
        "sim.steps": counts.get("sim.steps", 0),
        "sim.c_kernel": 1.0 if c_kernel else 0.0,
        "faults.corrupted_share": float(np.mean(corrupted)) if corrupted else 0.0,
        "arbiter.contended_share": float(np.mean(contended)) if contended else 0.0,
    })

    pool = traced.pool
    parent_self = self_times(traced.spans, _is_loop)
    passes = traced.passes
    metrics.update({
        "pool.run.self_s": (parent_self.get("pool.run", 0.0)
                            + parent_self.get("pool.run_episodes", 0.0)) / passes,
        "pool.tasks": pool.get("tasks", 0) / passes,
        "pool.retries": pool.get("retries", 0) / passes,
        "pool.recoveries": pool.get("recoveries", 0) / passes,
        "pool.worker_busy_share": _share(pool.get("busy_s", 0.0), pool.get("capacity_s", 0.0)),
    })

    untraced_ips = untraced.intervals / untraced.wall_s
    traced_ips = traced.intervals / traced.wall_s
    attributed = sum(loop_self.values())
    capacity = traced.wall_s * workers
    metrics.update({
        "trace.untraced_intervals_per_s": untraced_ips,
        "trace.traced_intervals_per_s": traced_ips,
        "trace.overhead_share": untraced_ips / traced_ips - 1.0,
        "trace.unattributed_share": 1.0 - attributed / capacity,
        "failed_share": _share(untraced.failed + traced.failed,
                               untraced.attempted + traced.attempted),
    })
    return metrics


__all__ = [
    "LOOP_SELF_MS",
    "SETUP_SELF_S",
    "loop_targets",
    "per_layer_metrics",
    "pool_targets",
    "setup_targets",
]
