"""Reference implementations the production hot paths are tested against.

Each hot path in ``src/repro`` has one implementation.  The slower code
it was derived from lives here, unchanged, as the oracle: the
equivalence tests and the speedup benchmarks compare the two.  Every
module exposes its oracle as a small subclass that overrides one public
seam, so a whole reference episode can run on it:

* :mod:`tests.oracles.engine` — the per-tick simulator loop
  (``QueueingEngine.run_interval``);
* :mod:`tests.oracles.events` — the per-event object loop of the
  discrete-event engine (``EventDrivenEngine.run``);
* :mod:`tests.oracles.control` — the Action-list candidate generator and
  selection (``ActionSpace.candidates_fast``,
  ``OnlineScheduler._select_fast``);
* :mod:`tests.oracles.predictor` — the per-window and B-copy window
  encoders and the per-candidate scoring path
  (``HybridPredictor.predict_candidates``);
* :mod:`tests.oracles.trees` — the recursive tree walk and grower
  (``BoostedTrees._build_tree``);
* :mod:`tests.oracles.layers` — the einsum convolution forward and
  backward and the per-step LSTM;
* :mod:`tests.oracles.pool` — the cold pool that pickles the full
  payload into every task (``WorkerPool._slim_task``).
"""

from __future__ import annotations

import copy


def as_oracle(obj, cls):
    """Shallow copy of ``obj`` whose methods come from the oracle ``cls``.

    ``cls`` must be a subclass of ``type(obj)`` that adds no state, so the
    copy shares the original's parameters and arrays.
    """
    ref = copy.copy(obj)
    ref.__class__ = cls
    return ref
