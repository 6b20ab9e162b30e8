"""The benchmark's workloads, driven through the repro package's public API.

Two Sinan workloads train their predictors cold with
:func:`~repro.harness.pipeline.get_trained_predictor` at the pinned
:data:`BENCH_BUDGET` and then run :class:`~repro.core.sinan.SinanManager`
through :func:`~repro.harness.experiment.run_episode`.  The multi-tenant
sweep dispatches :func:`multitenant_task` (which calls
:func:`~repro.harness.multitenant.run_multitenant_episode`) through
:func:`~repro.harness.parallel.run_episodes` on a warm
:class:`~repro.harness.pool.WorkerPool`.

A run is: set-up :data:`N_SETUPS` times, then run a fixed, seeded
*pass* of episodes, repeated until the requested seconds have elapsed.
The first pass gives the simulated metrics and the output digest; every
later pass must reproduce that digest.  Untraced, only the top-level
``decide()`` calls and each episode's wall time are timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import resource
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from perfbench import checks, layers
from perfbench.tracing import Tracer
from repro.core.manager import Manager
from repro.core.sinan import SinanManager
from repro.harness import multitenant, parallel
from repro.harness.experiment import run_episode
from repro.harness.multitenant import default_tenant_specs, run_multitenant_episode
from repro.harness.parallel import EpisodeTask
from repro.harness.pipeline import Budget, app_spec, get_trained_predictor, make_cluster
from repro.harness.pool import WorkerPool
from repro.tenancy.tenant import build_tenant
from repro.workload.patterns import ConstantLoad, DiurnalLoad, LoadPattern

#: Training budget of the Sinan workloads: cold bandit collection over
#: four load levels of 150 s, 10 CNN epochs, one on-policy round.
BENCH_BUDGET = Budget(
    "bench", collection_loads=4, seconds_per_load=150, epochs=10,
    batch_size=256, refine_rounds=1,
)

#: Set-ups per run; ``setup_s`` is their median.
N_SETUPS = 3

#: Base of the training seeds (see NOTES.md: pinned, not drawn from --seed).
TRAIN_SEED = 0

#: Decision intervals per Sinan episode (one diurnal period plus warmup).
EPISODE_INTERVALS = 250
WARMUP = 10

#: Multi-tenant sweep: episodes per pass, intervals per episode, budget.
MT_EPISODES = 24
MT_INTERVALS = 160
MT_BUDGET_CPU = 240.0
MT_MANAGER = "autoscale-cons"
WARM_INTERVALS = 20

#: A decision taking longer (wall clock) than the control interval fails.
DECISION_INTERVAL_S = 1.0

#: A run repeats its pass until the requested seconds have elapsed and
#: it has enough ``decide()`` samples for a p99 with 10 samples beyond it.
MIN_DECISIONS = 1000


def _more(result: "Outcome", seconds: float) -> bool:
    """Whether the timed phase needs another pass."""
    return (
        result.passes == 0
        or result.wall_s < seconds
        or len(result.decide_ms) < MIN_DECISIONS
    )


@dataclass(frozen=True)
class SinanWorkload:
    name: str
    app: str
    pattern: LoadPattern
    fault_profile: str | None = None
    episodes_per_model: int = 2
    """Episodes each set-up's predictor drives per pass: enough for at
    least 1500 decisions, so one pass outlasts the run length and its
    p99 has 15 samples beyond it."""


SINAN_WORKLOADS = {
    w.name: w
    for w in (
        SinanWorkload(
            "sinan-social-diurnal", "social_network",
            DiurnalLoad(base=170, amplitude=130, period=240),
        ),
        SinanWorkload(
            "sinan-hotel-chaos", "hotel_reservation", ConstantLoad(2500),
            fault_profile="chaos", episodes_per_model=4,
        ),
    )
}
MULTITENANT = "multitenant-sweep"
WORKLOADS = (*SINAN_WORKLOADS, MULTITENANT)


def derive_seed(seed: int, *tags: str) -> int:
    """A 31-bit seed derived from the benchmark seed and a label."""
    words = [seed & 0xFFFFFFFF, seed >> 32, *(zlib.crc32(t.encode()) for t in tags)]
    return int(np.random.SeedSequence(words).generate_state(1)[0] & 0x7FFFFFFF)


def seed_plan(workload: str, seed: int) -> dict[str, list[int]]:
    """Every seed a run of ``workload`` hands to the package."""
    if workload == MULTITENANT:
        return {
            "episode": [derive_seed(seed, workload, "episode", str(j))
                        for j in range(MT_EPISODES)],
        }
    n_episodes = N_SETUPS * SINAN_WORKLOADS[workload].episodes_per_model
    plan = {
        "train": [derive_seed(TRAIN_SEED, workload, "train", str(k))
                  for k in range(N_SETUPS)],
        "episode": [derive_seed(seed, workload, "episode", str(k))
                    for k in range(n_episodes)],
    }
    if SINAN_WORKLOADS[workload].fault_profile is not None:
        plan["fault"] = [derive_seed(seed, workload, "fault", str(k))
                         for k in range(n_episodes)]
    return plan


class TimedManager(Manager):
    """Times each ``decide()`` of the wrapped manager, keeping its return.

    ``decide_ms`` receives the thread CPU time of each call: the decision
    path is single-threaded (BLAS is pinned to one thread) and waits on
    nothing, so this is its wall time minus the preemption a shared host
    imposes.  Calls whose wall time exceeds the decision interval are
    counted in :attr:`late`.
    """

    def __init__(self, inner: Manager, decide_ms: list[float],
                 returned: list | None = None) -> None:
        self.inner = inner
        self.name = inner.name
        self.decide_ms = decide_ms
        self.returned = returned
        self.late = 0

    def decide(self, log):
        wall = time.perf_counter()
        cpu = time.thread_time()
        alloc = self.inner.decide(log)
        self.decide_ms.append((time.thread_time() - cpu) * 1e3)
        if time.perf_counter() - wall > DECISION_INTERVAL_S:
            self.late += 1
        if self.returned is not None:
            self.returned.append(alloc)
        return alloc

    def reset(self) -> None:
        self.inner.reset()


@dataclass
class Outcome:
    """What one run measured, before it is turned into metrics."""

    setup_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    intervals: int = 0
    passes: int = 0
    decide_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    sim: dict[str, float] = field(default_factory=dict)
    """Simulated summary of the first pass (identical on every pass)."""
    counts: dict[str, float] = field(default_factory=dict)
    """Deterministic per-pass counts (scheduler outcomes, work done)."""
    pool: dict[str, float] = field(default_factory=dict)
    worker_rss_kb: dict[int, int] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    """Spans recorded in this process (set-up, loop or pool dispatch)."""
    samples: dict = field(default_factory=dict)
    worker_traces: list = field(default_factory=list)
    """(spans, samples) of every process that ran the timed loop."""
    trees_count: float = 0.0
    """Trees kept by the set-ups' predictors, on average."""

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own + sum(self.worker_rss_kb.values())) / 1024.0


def _check_pass_digest(out: Outcome, digest: str) -> None:
    if out.passes == 0:
        out.digest = digest
    elif digest != out.digest:
        out.errors.append(
            f"pass {out.passes} digest {digest[:16]} != first pass {out.digest[:16]}"
        )


# -- Sinan workloads ----------------------------------------------------------


def _scheduler_counts(trace: list[dict], decisions: int,
                      returned: list, applied: np.ndarray) -> dict[str, float]:
    """Classify one episode's decisions from the scheduler's own trace."""
    predicted = np.array([t["predicted_ms"] for t in trace], dtype=float)
    fallback = np.array([t["fallback"] for t in trace], dtype=float) > 0
    useful = np.isfinite(predicted) & ~fallback
    boost = ~np.isfinite(predicted) & ~fallback
    clipped = sum(
        1 for alloc, row in zip(returned, applied)
        if alloc is not None
        and not np.allclose(alloc, row, rtol=0.0, atol=checks.TOLERANCE)
    )
    return {
        "decisions": decisions,
        "scored": int((~boost).sum()),
        "useful": int(useful.sum()),
        "fallback": int(fallback.sum()),
        "boost": int(boost.sum()),
        "clipped": clipped,
    }


def run_sinan(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Outcome, Outcome | None]:
    """Set up and run one Sinan workload; returns (untraced, traced) outcomes."""
    wl = SINAN_WORKLOADS[workload]
    spec = app_spec(wl.app)
    plan = seed_plan(workload, seed)
    tracer = Tracer() if trace else None

    out = Outcome()
    predictors = []
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            tracer.install(layers.setup_targets())
            stack.callback(tracer.uninstall)
        for k in range(N_SETUPS):
            if tracer is not None:
                tracer.context = f"setup{k}"
            start = time.perf_counter()
            with tracer.span("setup") if tracer else contextlib.nullcontext():
                predictor = get_trained_predictor(
                    wl.app, BENCH_BUDGET, seed=plan["train"][k],
                    use_cache=False, jobs=1,
                )
            out.setup_s.append(time.perf_counter() - start)
            predictors.append(predictor)
    out.trees_count = float(np.mean([p.trees.n_trees_used for p in predictors]))

    def episode(k: int):
        graph = spec.graph_factory()
        cluster = make_cluster(
            graph, wl.pattern.users(0.0), seed=plan["episode"][k],
            pattern=wl.pattern, fault_profile=wl.fault_profile,
            fault_seed=plan["fault"][k] if "fault" in plan else None,
        )
        predictor = predictors[k // wl.episodes_per_model]
        return SinanManager(predictor, spec.qos, graph), cluster, graph

    def timed_phase(result: Outcome, tracer: Tracer | None) -> None:
        while _more(result, seconds):
            hasher = hashlib.sha256()
            sims = []
            episodes = [episode(k) for k in range(len(plan["episode"]))]
            for k, (manager, cluster, graph) in enumerate(episodes):
                decide_ms: list[float] = []
                returned: list = []
                timed = TimedManager(manager, decide_ms, returned)
                if tracer is not None:
                    tracer.context = f"loop:p{result.passes}:e{k}"
                start = time.perf_counter()
                with tracer.span("episode") if tracer else contextlib.nullcontext():
                    ep = run_episode(timed, cluster, EPISODE_INTERVALS, spec.qos, WARMUP)
                result.wall_s += time.perf_counter() - start

                label = f"{workload} pass {result.passes} episode {k}"
                allocs, p99, times = checks.telemetry_arrays(ep.telemetry, spec.qos)
                result.errors += checks.allocation_errors(
                    allocs, graph.min_alloc(), graph.max_alloc(),
                    cluster.platform.total_cpu, label,
                )
                result.errors += checks.interval_errors(times, EPISODE_INTERVALS, label)
                summary = {
                    "qos_fraction": ep.qos_fraction,
                    "mean_cpu_cores": ep.mean_total_cpu,
                    "max_cpu_cores": ep.max_total_cpu,
                }
                result.errors += checks.finite_errors(summary, label)
                checks.digest_update(hasher, allocs, p99)
                sims.append(summary)

                result.intervals += EPISODE_INTERVALS
                result.decide_ms += decide_ms
                result.attempted += len(decide_ms)
                result.failed += manager.predictor_failures + timed.late
                if result.passes == 0:
                    counts = _scheduler_counts(
                        manager.scheduler.prediction_trace, len(decide_ms),
                        returned, allocs,
                    )
                    for key, value in counts.items():
                        result.counts[key] = result.counts.get(key, 0) + value
                    result.counts["sim.steps"] = result.counts.get("sim.steps", 0) + len(times)
            _check_pass_digest(result, hasher.hexdigest())
            if result.passes == 0:
                result.sim = _run_summary(sims)
            result.passes += 1

    timed_phase(out, None)
    if tracer is None:
        return out, None
    traced = Outcome(setup_s=out.setup_s, trees_count=out.trees_count)
    tracer.install(layers.loop_targets())
    try:
        timed_phase(traced, tracer)
    finally:
        tracer.uninstall()
    traced.spans = tracer.export()
    traced.samples = dict(tracer.samples)
    traced.worker_traces = [(traced.spans, traced.samples)]
    return out, traced


def _run_summary(summaries: list[dict[str, float]]) -> dict[str, float]:
    """QoS and mean CPU averaged over a pass's episodes; max CPU is its peak."""
    return {
        "qos_fraction": float(np.mean([s["qos_fraction"] for s in summaries])),
        "mean_cpu_cores": float(np.mean([s["mean_cpu_cores"] for s in summaries])),
        "max_cpu_cores": float(max(s["max_cpu_cores"] for s in summaries)),
    }


# -- multi-tenant sweep -------------------------------------------------------


def multitenant_task(seed: int, duration: int, trace: bool, context: str) -> dict:
    """One credit-arbitrated multi-tenant episode, checked and summarized.

    Runs in a pool worker.  Each tenant's manager is wrapped in a
    :class:`TimedManager` at construction (``decide()`` timing only);
    with ``trace`` the worker-side layers are traced too and the spans
    travel back with the result.
    """
    decide_ms: list[float] = []
    timed: list[TimedManager] = []
    build_tenant = multitenant.build_tenant

    def build_timed(*args, **kwargs):
        tenant = build_tenant(*args, **kwargs)
        tenant.manager = TimedManager(tenant.manager, decide_ms)
        timed.append(tenant.manager)
        return tenant

    tracer = Tracer() if trace else None
    multitenant.build_tenant = build_timed
    try:
        if tracer is not None:
            tracer.install(layers.loop_targets())
            tracer.context = context
        with tracer.span("episode") if tracer else contextlib.nullcontext():
            result = run_multitenant_episode(
                default_tenant_specs(MT_MANAGER), MT_BUDGET_CPU, duration,
                seed=seed, arbiter="credit", jobs=1,
            )
    finally:
        multitenant.build_tenant = build_tenant
        if tracer is not None:
            tracer.uninstall()

    hasher = hashlib.sha256()
    errors: list[str] = []
    cluster_cpu = np.zeros(duration)
    for t in result.tenants:
        label = f"{context} tenant {t.tenant}"
        spec = app_spec(t.app)
        graph = spec.graph_factory()
        allocs, p99, times = checks.telemetry_arrays(t.telemetry, spec.qos)
        errors += checks.allocation_errors(
            allocs, graph.min_alloc(), graph.max_alloc(), MT_BUDGET_CPU, label
        )
        errors += checks.interval_errors(times, duration, label)
        if len(allocs) == duration:
            cluster_cpu += allocs.sum(axis=1)
        checks.digest_update(hasher, allocs, p99)
    over = np.flatnonzero(cluster_cpu > MT_BUDGET_CPU + checks.TOLERANCE)
    if len(over):
        errors.append(
            f"{context}: cluster holds {cluster_cpu[over[0]]:.3f} cores over the "
            f"{MT_BUDGET_CPU:g}-core budget at interval {int(over[0])}"
        )
    summary = {
        "qos_fraction": result.aggregate_qos_fraction,
        "mean_cpu_cores": result.mean_cluster_cpu,
        "max_cpu_cores": result.max_cluster_cpu,
    }
    errors += checks.finite_errors(summary, context)
    return {
        "summary": summary,
        "digest": hasher.hexdigest(),
        "errors": errors,
        "decide_ms": decide_ms,
        "late": sum(m.late for m in timed),
        "intervals": duration,
        "steps": duration * len(result.tenants),
        "pid": os.getpid(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": (tracer.export(), dict(tracer.samples)) if tracer else None,
    }


def _quiet(outcome, done, total) -> None:
    """Progress callback that prints nothing (stdout carries the result)."""


def _spin_up_pool(workers: int, seeds: list[int]) -> WorkerPool:
    """Tenant construction for every episode of a pass, plus pool spin-up.

    The pool is warmed with two short episodes per worker, so forked
    workers have touched the code and data an episode needs before the
    timed phase starts.
    """
    specs = default_tenant_specs(MT_MANAGER)
    for s in seeds:
        for spec in specs:
            build_tenant(spec, MT_BUDGET_CPU, seed=s)
    pool = WorkerPool(jobs=workers, mp_context=multiprocessing.get_context("fork"))
    warm = [
        EpisodeTask(
            index=i, label=f"warm[{i}]", fn=multitenant_task,
            kwargs=dict(seed=seeds[i % len(seeds)], duration=WARM_INTERVALS,
                        trace=False, context=f"warm:{i}"),
        )
        for i in range(2 * workers)
    ]
    summary = parallel.run_episodes(warm, jobs=workers, pool=pool, progress=_quiet)
    if summary.failures:
        pool.close()
        raise RuntimeError(f"pool warm-up failed: {summary.failures[0].error}")
    return pool


def run_multitenant(seed: int, seconds: float, trace: bool, workers: int) -> tuple[Outcome, Outcome | None]:
    """Set up and run the multi-tenant sweep; returns (untraced, traced)."""
    seeds = seed_plan(MULTITENANT, seed)["episode"]
    out = Outcome()
    tracer = Tracer() if trace else None
    pool = None
    try:
        for k in range(N_SETUPS):
            if pool is not None:
                pool.close()
            start = time.perf_counter()
            pool = _spin_up_pool(workers, seeds)
            out.setup_s.append(time.perf_counter() - start)

        def timed_phase(result: Outcome, tracer: Tracer | None) -> None:
            while _more(result, seconds):
                tasks = [
                    EpisodeTask(
                        index=j, label=f"mt[p{result.passes},e{j}]",
                        fn=multitenant_task,
                        kwargs=dict(seed=s, duration=MT_INTERVALS, trace=tracer is not None,
                                    context=f"mt:p{result.passes}:e{j}"),
                    )
                    for j, s in enumerate(seeds)
                ]
                if tracer is not None:
                    tracer.context = f"loop:p{result.passes}"
                start = time.perf_counter()
                summary = parallel.run_episodes(
                    tasks, jobs=workers, pool=pool, progress=_quiet
                )
                wall = time.perf_counter() - start
                result.wall_s += wall
                _collect_pass(result, summary, wall, workers)

        timed_phase(out, None)
        if tracer is None:
            return out, None
        traced = Outcome(setup_s=out.setup_s)
        tracer.install(layers.pool_targets())
        try:
            timed_phase(traced, tracer)
        finally:
            tracer.uninstall()
        traced.spans = tracer.export()
        traced.samples = dict(tracer.samples)
        return out, traced
    finally:
        if pool is not None:
            pool.close()


def _collect_pass(result: Outcome, summary, wall: float, workers: int) -> None:
    hasher = hashlib.sha256()
    sims = []
    busy = 0.0
    for o in summary.outcomes:
        result.attempted += 1
        busy += o.seconds
        if not o.ok or o.attempts > 1:
            result.failed += 1
        if not o.ok:
            result.errors.append(f"{o.label}: {o.error}")
            continue
        r = o.result
        result.errors += r["errors"]
        hasher.update(r["digest"].encode())
        sims.append(r["summary"])
        result.decide_ms += r["decide_ms"]
        result.attempted += len(r["decide_ms"])
        result.failed += r["late"]
        result.intervals += r["intervals"]
        result.worker_rss_kb[r["pid"]] = max(
            result.worker_rss_kb.get(r["pid"], 0), r["maxrss_kb"]
        )
        if r["trace"] is not None:
            result.worker_traces.append(r["trace"])
        if result.passes == 0:
            result.counts["sim.steps"] = result.counts.get("sim.steps", 0) + r["steps"]
    pool = result.pool
    pool["tasks"] = pool.get("tasks", 0) + len(summary.outcomes)
    pool["retries"] = pool.get("retries", 0) + sum(o.attempts - 1 for o in summary.outcomes)
    pool["recoveries"] = pool.get("recoveries", 0) + summary.recovered_inline
    pool["busy_s"] = pool.get("busy_s", 0.0) + busy
    pool["capacity_s"] = pool.get("capacity_s", 0.0) + wall * workers
    _check_pass_digest(result, hasher.hexdigest())
    if result.passes == 0 and sims:
        result.sim = _run_summary(sims)
    result.passes += 1


__all__ = [
    "BENCH_BUDGET",
    "MULTITENANT",
    "Outcome",
    "SINAN_WORKLOADS",
    "TimedManager",
    "WORKLOADS",
    "derive_seed",
    "multitenant_task",
    "run_multitenant",
    "run_sinan",
    "seed_plan",
]
