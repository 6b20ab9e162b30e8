"""Parallel episode harness: fan independent simulations over processes.

Data collection and the Figure-11 sweeps dominate the wall-clock cost of
every benchmark run, yet each of their episodes is an independent,
seeded simulation — the same embarrassingly-parallel structure the paper
exploits by spreading collection across a 4-node cluster (Section 4.2).
This module provides the one fan-out primitive the rest of the harness
shares:

* :func:`run_episodes` executes a list of :class:`EpisodeTask` either
  inline (``jobs=1``, the default) or on a persistent warm worker pool
  (see :mod:`repro.harness.pool`) that is shared across calls within a
  run and broadcasts heavy model payloads once instead of per task.
  Both paths run the *same* per-episode worker function with the same
  per-episode seeds, so results are bit-identical regardless of worker
  count; outcomes are always returned in task order.
* A failed episode is retried once with its seed bumped by
  :data:`RETRY_SEED_BUMP` (a deterministic simulation that crashed will
  crash again under the same seed).  Failures that survive the retry are
  recorded on the :class:`RunSummary` instead of killing the whole run.
* Per-episode progress/timing lines are emitted through the
  ``repro.harness.parallel`` logger (the CLI enables INFO logging) or a
  caller-supplied ``progress`` callback.

Workers are separate processes, so task functions and their keyword
arguments must be picklable: module-level functions and dataclasses,
not closures.  The serial path has no such requirement, which keeps
lambda-based factories in tests and notebooks working unchanged.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

logger = logging.getLogger(__name__)

#: Seed increment applied when an episode is retried after a failure.
#: Large and prime, so bumped seeds never collide with the sequential
#: per-episode seeds (``seed + i``) of the original schedule.
RETRY_SEED_BUMP = 1_000_003


def resolve_jobs(jobs: int | None) -> int:
    """Resolve a ``--jobs`` value to a concrete worker count.

    ``None`` consults the ``REPRO_JOBS`` environment variable (the
    harness-wide contract, shared by every ``jobs=None`` call site) and
    falls back to serial (1 worker, run inline) when it is unset or
    empty; ``0`` — literal or via the env var — means one worker per
    available CPU, any positive value is taken literally.
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {raw!r}"
            ) from None
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return int(jobs)


@dataclass(frozen=True)
class EpisodeTask:
    """One independent episode: a picklable function plus its kwargs.

    ``kwargs`` should carry the episode's ``seed`` under the key named
    by ``seed_key`` so the retry path can deterministically re-seed it.
    """

    index: int
    label: str
    fn: Callable[..., Any]
    kwargs: dict
    seed_key: str = "seed"


@dataclass
class EpisodeOutcome:
    """Result (or failure) of one episode, with timing and attempts."""

    index: int
    label: str
    result: Any = None
    error: str | None = None
    attempts: int = 1
    seconds: float = 0.0

    warnings: list[str] = field(default_factory=list)
    """Worker-side retry/recovery messages.  Under ``spawn`` a worker's
    own log records never reach the parent, so the dispatcher re-logs
    these when the outcome arrives (see :func:`run_episodes`)."""

    model_cache_hits: int = 0
    """Broadcast payloads this episode resolved from its worker's
    deserialized-model cache (see :mod:`repro.harness.pool`)."""

    model_cache_misses: int = 0
    """Broadcast payloads the worker had to attach + deserialize."""

    @property
    def ok(self) -> bool:
        """Whether the episode produced a result."""
        return self.error is None


@dataclass
class RunSummary:
    """Outcome of a :func:`run_episodes` call, in task-index order."""

    outcomes: list[EpisodeOutcome] = field(default_factory=list)
    jobs: int = 1
    wall_seconds: float = 0.0

    pool_reused: bool = False
    """Whether a warm worker pool from an earlier call served this run."""

    broadcast_bytes: int = 0
    """Bytes newly published to shared memory for this run (0 when every
    model was already broadcast by an earlier call, or none was used)."""

    broadcast_publishes: int = 0
    model_cache_hits: int = 0
    model_cache_misses: int = 0
    recovered_inline: int = 0
    """Tasks whose pool-level dispatch failed (worker crash, unpicklable
    payload/result) and that were re-run inline in the parent."""

    @property
    def failures(self) -> list[EpisodeOutcome]:
        """Episodes that still failed after the retry."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def results(self) -> list[Any]:
        """Successful episode results, in task order."""
        return [o.result for o in self.outcomes if o.ok]

    def format(self) -> str:
        """One-line human summary (episodes, failures, timing)."""
        n_retried = sum(1 for o in self.outcomes if o.attempts > 1)
        parts = [
            f"{len(self.outcomes)} episodes in {self.wall_seconds:.1f}s",
            f"jobs={self.jobs}",
        ]
        if n_retried:
            parts.append(f"{n_retried} retried")
        if self.failures:
            parts.append(f"{len(self.failures)} FAILED")
        return ", ".join(parts)

    def raise_if_no_results(self) -> None:
        """Fail loudly when every episode died (partial runs proceed)."""
        if self.outcomes and not self.results:
            errors = "; ".join(
                f"{o.label}: {o.error}" for o in self.failures[:5]
            )
            raise RuntimeError(f"all {len(self.outcomes)} episodes failed: {errors}")


def _run_task(task: EpisodeTask, retries: int = 1) -> EpisodeOutcome:
    """Execute one task, retrying with a bumped seed on failure.

    Module-level so the process pool can pickle it; also used verbatim
    by the serial path so both produce identical results.
    """
    kwargs = dict(task.kwargs)
    start = time.perf_counter()
    warnings: list[str] = []
    for attempt in range(1, retries + 2):
        try:
            result = task.fn(**kwargs)
            return EpisodeOutcome(
                index=task.index,
                label=task.label,
                result=result,
                attempts=attempt,
                seconds=time.perf_counter() - start,
                warnings=warnings,
            )
        except Exception as exc:  # noqa: BLE001 - surfaced in the summary
            error = f"{type(exc).__name__}: {exc}"
            if attempt > retries:
                return EpisodeOutcome(
                    index=task.index,
                    label=task.label,
                    error=error,
                    attempts=attempt,
                    seconds=time.perf_counter() - start,
                    warnings=warnings,
                )
            if task.seed_key in kwargs:
                kwargs[task.seed_key] = kwargs[task.seed_key] + RETRY_SEED_BUMP
            # Recorded on the outcome (not logged here): under ``spawn``
            # a worker-side log line dies with the worker, so the parent
            # re-emits these when the outcome comes back.
            warnings.append(f"failed ({error}); retrying with bumped seed")
    raise AssertionError("unreachable")  # pragma: no cover


def _emit_warnings(outcome: EpisodeOutcome) -> None:
    """Re-log worker-side retry/recovery messages in the parent."""
    for message in outcome.warnings:
        logger.warning("episode %s: %s", outcome.label, message)


def _log_progress(outcome: EpisodeOutcome, done: int, total: int) -> None:
    status = "ok" if outcome.ok else f"FAILED ({outcome.error})"
    retry = f", attempt {outcome.attempts}" if outcome.attempts > 1 else ""
    logger.info(
        "[%d/%d] %s %s in %.1fs%s", done, total, outcome.label, status,
        outcome.seconds, retry,
    )


def _mp_context() -> mp.context.BaseContext:
    """Pick a start method: env override, else fork (cheap) if available."""
    method = os.environ.get("REPRO_MP_START")
    if method:
        return mp.get_context(method)
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def _record_outcome(recorder, outcome: EpisodeOutcome) -> None:
    """Harness-level metrics for one finished episode (wall-clock times
    are real here — the harness is not part of the simulated physics)."""
    recorder.counter("harness_episodes_total")
    if not outcome.ok:
        recorder.counter("harness_episode_failures_total")
    if outcome.attempts > 1:
        recorder.counter(
            "harness_episode_retries_total", float(outcome.attempts - 1)
        )
    recorder.observe(
        "harness_episode_seconds",
        outcome.seconds,
        buckets=(0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0),
    )


def run_episodes(
    tasks: list[EpisodeTask],
    jobs: int | None = None,
    retries: int = 1,
    progress: Callable[[EpisodeOutcome, int, int], None] | None = None,
    recorder=None,
    pool=None,
) -> RunSummary:
    """Run independent episode tasks, serially or on a worker pool.

    Parameters
    ----------
    tasks:
        Episodes to run.  Results come back in ``task.index`` order no
        matter the completion order.
    jobs:
        Worker processes (see :func:`resolve_jobs`; ``None`` honors
        ``REPRO_JOBS``).  ``jobs=1`` runs everything inline in this
        process — same code path as the workers, so results match
        bit-for-bit.
    retries:
        How many times a failing episode is re-attempted (with its seed
        bumped by :data:`RETRY_SEED_BUMP`).
    progress:
        Callback ``(outcome, n_done, n_total)`` fired as each episode
        finishes; defaults to an INFO log line per episode.
    recorder:
        Optional :class:`repro.obs.Recorder`; when enabled, episode
        counts, failures, retries, durations, and the pool's
        reuse/broadcast counters land in its metrics registry.
        Recording happens in this (parent) process only, so it works
        identically for serial and pooled runs.
    pool:
        Explicit :class:`repro.harness.pool.WorkerPool` to run on.
        Forces pooled execution even when ``jobs`` resolves to 1 (used
        by the sweep benchmark to compare a warm pool against the cold
        per-task-payload oracle in ``tests/oracles/pool.py``); the
        caller keeps ownership — the pool is not closed here.  Without
        it, pooled runs reuse the process-wide shared warm pool, which
        broadcasts model payloads once via shared memory.  Results are
        bit-identical either way.
    """
    n_jobs = resolve_jobs(jobs)
    n_jobs = max(1, min(n_jobs, len(tasks)))
    progress = progress or _log_progress
    record = recorder is not None and recorder.enabled
    if record:
        recorder.gauge("harness_jobs", float(n_jobs))
    start = time.perf_counter()
    stats = None

    if n_jobs == 1 and pool is None:
        outcomes: list[EpisodeOutcome] = []
        for done, task in enumerate(tasks, start=1):
            outcome = _run_task(task, retries=retries)
            _emit_warnings(outcome)
            outcomes.append(outcome)
            if record:
                _record_outcome(recorder, outcome)
            progress(outcome, done, len(tasks))
    else:
        from repro.harness import pool as pool_mod

        if pool is None:
            pool = pool_mod.shared_pool(n_jobs)
        outcomes, stats = pool.run(
            tasks, n_jobs=n_jobs, retries=retries, progress=progress,
            recorder=recorder,
        )

    summary = RunSummary(
        outcomes=outcomes, jobs=n_jobs, wall_seconds=time.perf_counter() - start
    )
    if stats is not None:
        summary.pool_reused = stats.reused
        summary.broadcast_bytes = stats.broadcast_bytes
        summary.broadcast_publishes = stats.broadcast_publishes
        summary.model_cache_hits = stats.cache_hits
        summary.model_cache_misses = stats.cache_misses
        summary.recovered_inline = stats.recovered_inline
    logger.info("%s", summary.format())
    return summary


__all__ = [
    "RETRY_SEED_BUMP",
    "EpisodeTask",
    "EpisodeOutcome",
    "RunSummary",
    "resolve_jobs",
    "run_episodes",
]
