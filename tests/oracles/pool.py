"""Per-task-pickle worker pool: the oracle for the broadcasting one.

:class:`~repro.harness.pool.WorkerPool` pickles a predictor once into
shared memory and sends each task a slim ``ModelRef``.
:class:`ColdWorkerPool` skips that step, so every task carries its full
kwargs — the fan-out the warm pool replaced.  Pooled results must be
bit-identical on both, and the sweep benchmark times one against the
other.
"""

from __future__ import annotations

from repro.harness.parallel import EpisodeTask
from repro.harness.pool import PoolRunStats, WorkerPool


class ColdWorkerPool(WorkerPool):
    """A :class:`WorkerPool` that pickles the full payload into every task."""

    def _slim_task(self, task: EpisodeTask, stats: PoolRunStats) -> EpisodeTask:
        return task
