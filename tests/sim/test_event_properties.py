"""Differential property test: the event loop vs its object-loop oracle.

:meth:`EventDrivenEngine.run` must reproduce
:meth:`ReferenceEventEngine.run_reference` bit for bit on any scenario,
not only the hand-picked ones in ``test_fast_events.py``.  Hypothesis
draws per-tier allocations (sub-core ones included), per-type rates
(zeros included), small queues, the service-noise level, and one to
three successive runs with changed allocations, on the tiny and the
hotel graphs.  Each run must leave the same summary, tier counters,
drop count, clock and RNG state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.pipeline import app_spec
from repro.sim.event_engine import EventDrivenEngine, EventEngineConfig
from tests.conftest import make_tiny_graph
from tests.oracles.events import ReferenceEventEngine
from tests.sim.test_fast_events import assert_state_equal, assert_summary_equal

GRAPHS = {
    "tiny": make_tiny_graph(),
    "hotel": app_spec("hotel_reservation").graph_factory(),
}


@st.composite
def scenarios(draw):
    graph = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))]
    config = EventEngineConfig(
        noise_sigma=draw(st.floats(0.0, 0.6)),
        max_queue=draw(st.one_of(st.integers(1, 30), st.just(4000))),
    )
    # Up to ~400 rps in total keeps the object loop fast and still
    # queues (and, with a small queue, drops) on sub-core tiers.
    per_type = st.one_of(st.just(0.0), st.floats(1.0, 400.0 / graph.n_types))
    alloc = st.floats(0.05, 2.0)
    runs = [
        (
            np.array(draw(st.lists(alloc, min_size=graph.n_tiers,
                                   max_size=graph.n_tiers))),
            np.array(draw(st.lists(per_type, min_size=graph.n_types,
                                   max_size=graph.n_types))),
            draw(st.sampled_from([1.0, 2.0, 3.0])),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return graph, config, draw(st.integers(0, 2**16)), runs


@settings(max_examples=80, deadline=None)
@given(scenarios())
def test_run_matches_object_loop(scenario):
    graph, config, seed, runs = scenario
    fast_e = EventDrivenEngine(graph, config, seed=seed)
    ref_e = ReferenceEventEngine(graph, config, seed=seed)
    for allocs, rates, duration in runs:
        assert_summary_equal(
            fast_e.run(allocs, rates, duration),
            ref_e.run_reference(allocs, rates, duration),
        )
        assert_state_equal(fast_e, ref_e)
