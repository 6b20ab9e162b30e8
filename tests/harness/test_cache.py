"""Predictor disk-cache hardening: atomicity, corruption recovery,
read/write split, and cross-process races on a cold cache.

Uses a one-load/two-epoch budget so every retrain is sub-second.
"""

import multiprocessing as mp
import os

import pytest

from repro.core.predictor import HybridPredictor
from repro.harness import pipeline as pl
from repro.harness.pipeline import Budget

TINY = Budget("tiny", collection_loads=1, seconds_per_load=24, epochs=2,
              batch_size=32, refine_rounds=0)
APP = "hotel_reservation"


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    pl._memory_cache.clear()
    yield tmp_path
    pl._memory_cache.clear()


def _cache_file(tmp_path, seed):
    return tmp_path / f"predictor-{APP}-tiny-s{seed}-v{pl._CACHE_VERSION}.pkl"


def _train(seed, **kwargs):
    return pl.get_trained_predictor(APP, TINY, seed=seed, **kwargs)


class TestCorruptionRecovery:
    def test_truncated_cache_retrains(self, isolated_cache):
        """Regression: a crash mid-write used to leave a truncated pickle
        that made every subsequent ``get_trained_predictor`` raise."""
        _train(seed=1)
        cache_file = _cache_file(isolated_cache, 1)
        payload = cache_file.read_bytes()
        cache_file.write_bytes(payload[: len(payload) // 2])
        pl._memory_cache.clear()

        predictor = _train(seed=1)  # must not raise
        assert predictor.report.rmse_val > 0
        # The rewritten entry is whole again and loads cleanly.
        reloaded = HybridPredictor.load(cache_file)
        assert reloaded.report.rmse_val == predictor.report.rmse_val

    def test_garbage_cache_is_a_miss(self, isolated_cache):
        cache_file = _cache_file(isolated_cache, 2)
        cache_file.write_bytes(b"not a pickle at all")
        predictor = _train(seed=2)
        assert predictor.report.rmse_val > 0

    def test_empty_cache_file_is_a_miss(self, isolated_cache):
        cache_file = _cache_file(isolated_cache, 3)
        cache_file.touch()
        assert _train(seed=3).report.rmse_val > 0


class TestAtomicWrite:
    def test_no_temp_files_left_behind(self, isolated_cache):
        _train(seed=4)
        leftovers = [p for p in isolated_cache.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_store_replaces_existing_entry(self, isolated_cache):
        cache_file = _cache_file(isolated_cache, 5)
        predictor = _train(seed=5)
        before = cache_file.read_bytes()
        predictor.save(cache_file)
        assert cache_file.read_bytes() == before  # same model, whole file


class TestReadWriteSplit:
    def test_no_cache_refreshes_the_entry(self, isolated_cache):
        """--no-cache must retrain AND rewrite the cache, not discard the
        fresh model (the old ``use_cache=False`` threw it away)."""
        _train(seed=6)
        cache_file = _cache_file(isolated_cache, 6)
        cache_file.write_bytes(b"stale garbage standing in for an old model")

        pl._memory_cache.clear()
        predictor = _train(seed=6, read_cache=False)
        # The cache entry was refreshed with the retrained model.
        reloaded = HybridPredictor.load(cache_file)
        assert reloaded.report.rmse_val == predictor.report.rmse_val

    def test_use_cache_false_touches_nothing(self, isolated_cache):
        _train(seed=7, use_cache=False)
        assert not _cache_file(isolated_cache, 7).exists()
        assert pl._memory_cache == {}

    def test_write_cache_false_skips_write(self, isolated_cache):
        _train(seed=8, write_cache=False)
        assert not _cache_file(isolated_cache, 8).exists()


def _race_worker(cache_dir, seed, queue):
    """Child-process body for the cold-cache race (module-level: picklable)."""
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    pl._memory_cache.clear()
    predictor = pl.get_trained_predictor(APP, TINY, seed=seed)
    queue.put(predictor.report.rmse_val)


class TestColdCacheRace:
    def test_concurrent_trainers_share_one_model(self, isolated_cache):
        """Two processes racing on a cold cache: the lock serializes them,
        the loser loads the winner's entry, and the file stays whole."""
        ctx = mp.get_context("fork")
        queue = ctx.Queue()
        procs = [
            ctx.Process(target=_race_worker, args=(isolated_cache, 9, queue))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        results = [queue.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0

        # Both got the same model (deterministic training + shared cache).
        assert results[0] == results[1]
        cache_file = _cache_file(isolated_cache, 9)
        assert HybridPredictor.load(cache_file).report.rmse_val == results[0]
        # Exactly one published entry, no temp debris.
        pkls = list(isolated_cache.glob("*.pkl"))
        assert pkls == [cache_file]
