"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one table or figure of the paper's evaluation
and prints the corresponding rows/series.  Model training is cached (in
process and under ``.cache/``), so the expensive pipeline runs once per
application per budget.

Environment knobs:

* ``REPRO_BUDGET`` — ``small`` / ``medium`` (default) / ``large``;
  scales data collection and training epochs.
* ``REPRO_EPISODE_SECONDS`` — length of each evaluation episode
  (default 150 intervals).
* ``REPRO_SEEDS`` — number of seeds averaged per experiment point
  (default 2).
* ``REPRO_JOBS`` — worker processes for data-collection fan-out
  (``0`` = one per CPU; unset/empty = serial).  The collected datasets
  and trained models are identical either way.
"""

from __future__ import annotations

import os

from perfbench.run import BLAS_ENV, BLAS_THREADS

# Pin BLAS threads as perfbench does, before numpy loads, so the CNN
# timings here and in perfbench are taken under the same BLAS setting.
for _name in BLAS_ENV:
    os.environ[_name] = str(BLAS_THREADS)

import pytest

from repro.harness.pipeline import get_trained_predictor, resolve_budget


def episode_seconds() -> int:
    return int(os.environ.get("REPRO_EPISODE_SECONDS", "150"))


def n_seeds() -> int:
    return int(os.environ.get("REPRO_SEEDS", "2"))


def warmup_seconds() -> int:
    return min(40, episode_seconds() // 4)


def n_jobs() -> int | None:
    """Parallel fan-out from ``REPRO_JOBS`` (None = serial, 0 = all CPUs)."""
    raw = os.environ.get("REPRO_JOBS", "").strip()
    return int(raw) if raw else None


@pytest.fixture(scope="session")
def budget():
    return resolve_budget(None)


@pytest.fixture(scope="session")
def social_predictor(budget):
    return get_trained_predictor("social_network", budget, seed=0, jobs=n_jobs())


@pytest.fixture(scope="session")
def hotel_predictor(budget):
    return get_trained_predictor("hotel_reservation", budget, seed=0, jobs=n_jobs())


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def gce_predictor(social_predictor, budget):
    """Social Network predictor fine-tuned for the GCE platform.

    This is the paper's Section 5.4 transfer step: collect a modest
    amount of data on the new platform and fine-tune at lr/100 instead
    of retraining from scratch.  Reused by the Figure 14/15 benches.
    """
    from repro.core.retrain import fine_tune_predictor
    from repro.harness.pipeline import collect_training_data
    from repro.sim.cluster import GCE_PLATFORM
    from repro.apps import social_network

    graph = social_network()
    new_data = collect_training_data(
        graph, budget, seed=41, platform=GCE_PLATFORM, jobs=n_jobs()
    )
    counts = [max(len(new_data) // 2, 10)]
    tuned, _ = fine_tune_predictor(
        social_predictor, new_data, counts, scenario="gce",
        epochs=max(budget.epochs // 3, 4), seed=41,
    )
    return tuned
