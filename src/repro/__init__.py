"""repro — reproduction of *Sinan: ML-Based and QoS-Aware Resource
Management for Cloud Microservices* (ASPLOS 2021).

The package provides:

* :mod:`repro.sim` — a queueing-network simulator of a microservice
  cluster (the substrate standing in for the paper's Docker/GCE testbed),
* :mod:`repro.apps` — the two DeathStarBench applications the paper
  evaluates (Social Network, Hotel Reservation),
* :mod:`repro.workload` — open-loop Poisson workload generation,
* :mod:`repro.ml` — from-scratch numpy ML: the CNN latency predictor,
  the Boosted-Trees violation predictor, and the MLP/LSTM/multi-task
  comparison models,
* :mod:`repro.core` — Sinan itself: feature encoding, bandit data
  collection, the hybrid predictor, the online scheduler, incremental
  retraining, and LIME-style explainability,
* :mod:`repro.baselines` — AutoScaleOpt, AutoScaleCons, and PowerChief,
* :mod:`repro.harness` — experiment episodes and report formatting used
  by the benchmark suite.

Quickstart::

    from repro import quick_sinan
    from repro.apps import social_network, SOCIAL_QOS_MS
    from repro.core import QoSTarget
    from repro.harness import run_episode

    sinan, cluster = quick_sinan(social_network(), users=150, seed=1)
    result = run_episode(sinan, cluster, 60, QoSTarget(SOCIAL_QOS_MS))
    print(result.qos_fraction)
"""

from repro._version import __version__


def quick_sinan(graph, users=100, seed=0, budget="small"):
    """Train a Sinan manager for ``graph`` and return ``(manager, cluster)``.

    Convenience wrapper over the full pipeline (data collection, model
    training, scheduler construction); see :mod:`repro.harness.pipeline`
    for the individually controllable steps.
    """
    from repro.harness.pipeline import build_sinan_pipeline

    return build_sinan_pipeline(graph, users=users, seed=seed, budget=budget)


__all__ = ["__version__", "quick_sinan"]
