"""Warm worker-pool tests: reuse, broadcast, cleanup, crash recovery."""

import gc
import os
import pickle

import pytest

from repro.harness.parallel import EpisodeTask, run_episodes
from repro.harness.pool import (
    ModelRef,
    PoolRunStats,
    WorkerPool,
    _expected_cost,
    _schedule,
    close_shared_pool,
    shared_pool,
)
from tests.oracles.pool import ColdWorkerPool

_PARENT_PID = os.getpid()


def shm_segments() -> set:
    """Live POSIX shared-memory segments (Python names them psm_*)."""
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # non-Linux fallback: nothing to check
        return set()


# Worker functions must be module-level so worker processes can pickle
# them by reference.

def _identify(seed: int, predictor=None) -> tuple:
    """Echo back what the worker actually received for ``predictor``."""
    payload = None if predictor is None else predictor.get("tag")
    return (seed, payload, os.getpid())


def _square(seed: int) -> int:
    return seed * seed


def _square_costed(seed: int, seconds: int, users: float) -> int:
    return seed * seed


def _crash_in_worker(seed: int) -> int:
    """Hard-kill the hosting process — but only if it's a pool worker."""
    if seed == 1 and os.getpid() != _PARENT_PID:
        os._exit(17)
    return seed * 10


def _unpicklable_result(seed: int):
    return lambda: seed  # a closure cannot cross the result queue


def _tasks(fn, n=4, **extra):
    return [
        EpisodeTask(index=i, label=f"ep{i}", fn=fn,
                    kwargs={"seed": i, **extra})
        for i in range(n)
    ]


def _model(tag: str, size: int = 2000) -> dict:
    return {"tag": tag, "weights": list(range(size))}


class TestBroadcast:
    def test_model_ref_replaces_predictor_kwarg(self):
        model = _model("v1")
        with WorkerPool(jobs=2) as pool:
            outcomes, stats = pool.run(_tasks(_identify, predictor=model))
        assert [o.result[:2] for o in outcomes] == [
            (i, "v1") for i in range(4)
        ]
        assert stats.broadcast_publishes == 1
        assert stats.broadcast_bytes == len(
            pickle.dumps(model, pickle.HIGHEST_PROTOCOL)
        )
        # Every worker deserializes at most once; the rest are hits.
        assert stats.cache_misses <= 2
        assert stats.cache_hits + stats.cache_misses == 4

    def test_task_payload_shrinks(self):
        model = _model("v1", size=200_000)
        task = _tasks(_identify, n=1, predictor=model)[0]
        fat = len(pickle.dumps(task.kwargs, pickle.HIGHEST_PROTOCOL))
        with WorkerPool(jobs=1) as pool:
            ref, _ = pool.broadcast(model)
        slim = len(pickle.dumps(
            {**task.kwargs, "predictor": ref}, pickle.HIGHEST_PROTOCOL
        ))
        assert fat / slim > 50

    def test_same_model_published_once_across_runs(self):
        model = _model("v1")
        with WorkerPool(jobs=2) as pool:
            _, first = pool.run(_tasks(_identify, predictor=model))
            _, second = pool.run(_tasks(_identify, predictor=model))
        assert first.broadcast_publishes == 1
        assert second.broadcast_publishes == 0
        assert second.broadcast_bytes == 0

    def test_none_predictor_stays_inline(self):
        with WorkerPool(jobs=2) as pool:
            outcomes, stats = pool.run(_tasks(_identify, predictor=None))
        assert stats.broadcast_publishes == 0
        assert [o.result[1] for o in outcomes] == [None] * 4

    def test_fingerprint_change_invalidates_worker_cache(self):
        # Continuous-learning promotion: a new predictor object mid-run
        # must republish under a new fingerprint and force a worker-side
        # cache miss — stale caches must never serve the old model.
        with WorkerPool(jobs=1) as pool:
            _, v1 = pool.run(_tasks(_identify, n=2, predictor=_model("v1")))
            out2, v2 = pool.run(_tasks(_identify, n=2, predictor=_model("v2")))
        assert v1.broadcast_publishes == 1
        assert v1.cache_misses == 1 and v1.cache_hits == 1
        assert v2.broadcast_publishes == 1  # new fingerprint -> republish
        assert v2.cache_misses == 1  # the single worker must miss once
        assert [o.result[1] for o in out2] == ["v2", "v2"]


class TestWarmReuse:
    def test_two_sweeps_on_warm_pool_match_two_cold_pools(self):
        model = _model("v1")
        first = _tasks(_identify, n=3, predictor=model)
        second = _tasks(_identify, n=3, predictor=model)

        cold_results = []
        for tasks in (first, second):
            with ColdWorkerPool(jobs=2) as cold:
                outcomes, _ = cold.run(tasks)
                cold_results.append([o.result[:2] for o in outcomes])

        with WorkerPool(jobs=2) as warm:
            out1, stats1 = warm.run(first)
            out2, stats2 = warm.run(second)
        assert [o.result[:2] for o in out1] == cold_results[0]
        assert [o.result[:2] for o in out2] == cold_results[1]
        assert not stats1.reused and stats2.reused

    def test_run_episodes_reports_pool_reuse(self):
        with WorkerPool(jobs=2) as pool:
            run_episodes(_tasks(_square), jobs=2, pool=pool)
            summary = run_episodes(_tasks(_square), jobs=2, pool=pool)
        assert summary.pool_reused
        assert summary.results == [i * i for i in range(4)]

    def test_shared_pool_is_reused_and_replaced_when_grown(self):
        close_shared_pool()
        try:
            pool = shared_pool(2)
            assert shared_pool(1) is pool  # smaller request: same pool
            bigger = shared_pool(3)
            assert bigger is not pool and pool.closed
        finally:
            close_shared_pool()


class TestCleanup:
    def test_no_leaked_segments_after_close(self):
        before = shm_segments()
        with WorkerPool(jobs=2) as pool:
            pool.run(_tasks(_identify, predictor=_model("v1")))
            assert shm_segments() - before  # live while the pool is open
        assert shm_segments() - before == set()

    def test_no_leaked_segments_after_gc_without_close(self):
        before = shm_segments()
        pool = WorkerPool(jobs=1)
        pool.run(_tasks(_identify, n=1, predictor=_model("v1")))
        del pool
        gc.collect()
        assert shm_segments() - before == set()

    def test_no_leaked_segments_after_worker_crash(self):
        before = shm_segments()
        with WorkerPool(jobs=2) as pool:
            pool.run(_tasks(_crash_in_worker, predictor=_model("v1")))
        assert shm_segments() - before == set()

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(jobs=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(_tasks(_square, n=1))


class TestCrashRecovery:
    def test_worker_crash_recovered_inline(self):
        with WorkerPool(jobs=2) as pool:
            outcomes, stats = pool.run(_tasks(_crash_in_worker))
        assert [o.result for o in outcomes] == [0, 10, 20, 30]
        assert stats.recovered_inline >= 1
        crashed = outcomes[1]
        # The lost dispatch counts as an attempt with measured time, so
        # harness_episode_seconds is not polluted with zeros.
        assert crashed.attempts == 2
        assert crashed.seconds > 0.0
        assert any("pool-level failure" in w for w in crashed.warnings)

    def test_pool_survives_crash_for_next_run(self):
        with WorkerPool(jobs=2) as pool:
            pool.run(_tasks(_crash_in_worker))
            outcomes, _ = pool.run(_tasks(_square))
        assert [o.result for o in outcomes] == [0, 1, 4, 9]

    def test_unpicklable_result_recovered_inline(self):
        with WorkerPool(jobs=2) as pool:
            outcomes, stats = pool.run(_tasks(_unpicklable_result, n=2))
        assert stats.recovered_inline == 2
        assert all(o.ok and callable(o.result) for o in outcomes)
        assert all(o.attempts == 2 and o.seconds > 0.0 for o in outcomes)


class TestScheduling:
    def test_longest_expected_first(self):
        tasks = [
            EpisodeTask(index=i, label=f"s{i}", fn=_square,
                        kwargs={"seed": i, "seconds": s, "users": u})
            for i, (s, u) in enumerate([(10, 100), (10, 300), (5, 300)])
        ]
        # costs: 1000, 3000, 1500 -> heaviest first
        assert _schedule(tasks) == [1, 2, 0]

    def test_unknown_costs_keep_submission_order(self):
        tasks = _tasks(_square, n=3)
        assert _schedule(tasks) == [0, 1, 2]
        assert _expected_cost(tasks[0]) is None

    def test_reordering_never_reorders_results(self):
        tasks = [
            EpisodeTask(index=i, label=f"s{i}", fn=_square_costed,
                        kwargs={"seed": i, "seconds": 10 - i, "users": 1.0})
            for i in range(5)
        ]
        with WorkerPool(jobs=2) as pool:
            outcomes, _ = pool.run(tasks)
        assert [o.index for o in outcomes] == list(range(5))
        assert [o.result for o in outcomes] == [i * i for i in range(5)]


class TestStats:
    def test_stats_are_plain_counters(self):
        stats = PoolRunStats()
        assert stats.broadcast_bytes == 0 and not stats.reused

    def test_model_ref_is_slim_and_frozen(self):
        ref = ModelRef("abc", "psm_test", 10)
        assert len(pickle.dumps(ref)) < 200
        with pytest.raises(AttributeError):
            ref.fingerprint = "other"
