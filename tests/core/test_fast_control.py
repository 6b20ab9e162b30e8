"""Vectorized control loop vs the Action-list oracle: bitwise equality.

The matrix candidate path (:meth:`ActionSpace.candidates_fast`) and the
mask-based selection (:meth:`OnlineScheduler._select_fast`) are only
shippable because they change nothing but wall-clock time.  These tests
pin that down at every level against :mod:`tests.oracles.control`: the
candidate matrix row-for-row against the Action list, the selected index
against the list-based ``_select`` under synthetic predictions, and
full-episode decision traces of the production scheduler vs
:class:`~tests.oracles.control.ReferenceScheduler` — on clean telemetry,
under fault profiles, and on telemetry recorded from a bandit-explorer
episode.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.actions import ActionSpace, KINDS_BY_CODE
from repro.core.data_collection import BanditExplorer, CollectionConfig
from repro.core.scheduler import OnlineScheduler
from tests.conftest import make_tiny_cluster, make_tiny_graph
from tests.core.test_fast_path import (  # noqa: F401 (fixture re-export)
    QOS,
    make_faulty_cluster,
    trained,
)
from tests.oracles.control import ReferenceScheduler, reference_action_space


def tiny_space() -> ActionSpace:
    graph = make_tiny_graph()
    return ActionSpace(graph.min_alloc(), graph.max_alloc())


def assert_candidates_equal(space, current, cpu_util, victims, allow_down):
    actions = reference_action_space(space).candidates(
        current, cpu_util, victims=victims, allow_scale_down=allow_down
    )
    cset = space.candidates_fast(
        current, cpu_util, victims=victims, allow_scale_down=allow_down
    )
    assert len(cset) == len(actions)
    assert np.array_equal(cset.allocs, np.stack([a.alloc for a in actions]))
    assert [KINDS_BY_CODE[c] for c in cset.kinds] == [a.kind for a in actions]
    assert np.array_equal(
        cset.total_cpu, np.array([a.total_cpu for a in actions])
    )
    for i, action in enumerate(actions):
        assert cset.kind_of(i) is action.kind


class TestCandidateMatrixEquivalence:
    """``candidates_fast`` emits exactly the Action-list candidates:
    same rows, same order, same kinds, same total CPU."""

    @pytest.mark.parametrize("allow_down", [True, False])
    def test_synthetic_states(self, rng, allow_down):
        space = tiny_space()
        n = space.n_tiers
        victim_patterns = [
            None,
            np.zeros(n, dtype=bool),
            np.ones(n, dtype=bool),
            np.arange(n) % 2 == 0,
        ]
        for trial in range(10):
            current = np.round(rng.uniform(0.3, 7.5, n), 2)
            cpu_util = rng.uniform(0.0, 1.2, n)
            victims = victim_patterns[trial % len(victim_patterns)]
            assert_candidates_equal(
                space, current, cpu_util, victims, allow_down
            )

    def test_at_allocation_bounds(self):
        """Clipped-away candidates dedupe identically on both paths."""
        space = tiny_space()
        util = np.full(space.n_tiers, 0.4)
        for current in (space.min_alloc.copy(), space.max_alloc.copy()):
            assert_candidates_equal(space, current, util, None, True)

    def _sweep_episode(self, cluster, steps, policy=None):
        """Candidate equality at every interval of a live episode."""
        space = tiny_space()
        qos = QOS
        for _ in range(steps):
            if policy is not None:
                alloc = policy.decide(cluster)
                stats = cluster.step(alloc)
                policy.observe(qos.latency_of(stats) <= qos.latency_ms)
            else:
                cluster.step(cluster.current_alloc)
            latest = cluster.observed.latest
            current = np.asarray(latest.cpu_alloc, dtype=float)
            if not np.all(np.isfinite(current)):
                current = np.where(
                    np.isfinite(current), current, space.max_alloc
                )
            cpu_util = np.nan_to_num(
                np.asarray(latest.cpu_util, dtype=float),
                nan=1.0, posinf=1.0, neginf=0.0,
            )
            for allow_down in (True, False):
                assert_candidates_equal(
                    space, current, cpu_util, None, allow_down
                )

    def test_normal_episode(self):
        self._sweep_episode(make_tiny_cluster(users=180, seed=31), 15)

    @pytest.mark.parametrize("profile", ["chaos", "telemetry-dropout"])
    def test_fault_episodes(self, profile):
        self._sweep_episode(make_faulty_cluster(180, 33, profile), 15)

    def test_bandit_explorer_episode(self):
        """The explorer's aggressive allocation swings exercise corners
        (bound-clipped rows, heavy dedupe) a managed episode avoids."""
        config = CollectionConfig(qos=QOS)
        self._sweep_episode(
            make_tiny_cluster(users=220, seed=35),
            20,
            policy=BanditExplorer(config, seed=7),
        )


class TestSelectEquivalence:
    """``_select_fast`` picks the same index as the list-based
    ``_select`` — including the EWMA hold-probability state both carry
    across decisions and every first-match tie-break."""

    def _schedulers(self, trained):  # noqa: F811
        space = tiny_space()
        fast = OnlineScheduler(trained, space, QOS)
        ref = ReferenceScheduler(trained, space, QOS)
        return space, fast, ref

    def test_lockstep_selection(self, trained, rng):  # noqa: F811
        space, fast, ref = self._schedulers(trained)
        n = space.n_tiers
        for trial in range(30):
            current = np.round(rng.uniform(0.3, 6.0, n), 2)
            cpu_util = rng.uniform(0.0, 1.0, n)
            allow_down = bool(trial % 2)
            actions = ref.action_space.candidates(
                current, cpu_util, allow_scale_down=allow_down
            )
            cset = space.candidates_fast(
                current, cpu_util, allow_scale_down=allow_down
            )
            b = len(actions)
            # Mix clearly-safe, borderline, and violating predictions so
            # every acceptability branch (and the no-acceptable fallback)
            # is hit across the sweep.
            pred_lat = rng.uniform(20.0, 400.0, b)
            prob = rng.uniform(0.0, 0.4, b)
            idx_ref = ref._select(actions, pred_lat, prob)
            idx_fast = fast._select_fast(cset, pred_lat, prob)
            assert idx_fast == idx_ref
            assert fast._hold_p_ewma == ref._hold_p_ewma

    def test_exact_ties_break_first_match(self, trained):  # noqa: F811
        """Identical scores across candidates: both paths must keep the
        generation-order first match."""
        space, fast, ref = self._schedulers(trained)
        n = space.n_tiers
        current = np.full(n, 2.0)
        actions = ref.action_space.candidates(current, np.full(n, 0.3))
        cset = space.candidates_fast(current, np.full(n, 0.3))
        b = len(actions)
        pred_lat = np.full(b, 50.0)
        prob = np.full(b, 0.001)
        assert fast._select_fast(cset, pred_lat, prob) == ref._select(
            actions, pred_lat, prob
        )


class TestActionTotalCpuCache:
    """Satellite: ``Action.total_cpu`` is precomputed once per action;
    the cache must be transparent to the reference selection path."""

    def test_cached_value_matches_recompute(self):
        space = reference_action_space(tiny_space())
        current = np.array([1.0, 2.0, 3.0, 4.0])
        for action in space.candidates(current, np.full(4, 0.5)):
            first = action.total_cpu
            assert first == float(np.sum(action.alloc))
            assert "total_cpu" in action.__dict__  # cached after access
            assert action.total_cpu is action.__dict__["total_cpu"]

    def test_reference_choice_unchanged_by_cache(self, trained, rng):  # noqa: F811
        """Pre-warming every cache cannot change what ``_select`` picks."""
        space = reference_action_space(tiny_space())
        ref_a = ReferenceScheduler(trained, space, QOS)
        ref_b = ReferenceScheduler(trained, space, QOS)
        n = space.n_tiers
        for _ in range(10):
            current = np.round(rng.uniform(0.3, 6.0, n), 2)
            cold = space.candidates(current, np.full(n, 0.3))
            warm = space.candidates(current, np.full(n, 0.3))
            for action in warm:
                action.total_cpu  # populate the cache up front
            b = len(cold)
            pred_lat = rng.uniform(20.0, 400.0, b)
            prob = rng.uniform(0.0, 0.4, b)
            assert ref_a._select(cold, pred_lat, prob) == ref_b._select(
                warm, pred_lat, prob
            )


class TestFastControlTraceEquivalence:
    """Full-episode decision traces, production vs reference control loop.

    Both runs score with the production predictor — only the control
    loop (candidate generation + selection) differs, so this isolates
    exactly the vectorized code.  Decisions feed back into the
    simulator, so a single divergence would compound."""

    def _run_trace(self, trained, fast: bool, cluster_factory) -> list:  # noqa: F811
        cluster = cluster_factory()
        graph = make_tiny_graph()
        space = ActionSpace(graph.min_alloc(), graph.max_alloc())
        scheduler_cls = OnlineScheduler if fast else ReferenceScheduler
        scheduler = scheduler_cls(trained, space, QOS)
        trained.encoder.invalidate_cache()
        trace = []
        for _ in range(20):
            cluster.step(cluster.current_alloc)
            alloc = scheduler.decide(cluster.observed)
            if alloc is not None:
                cluster.step(alloc)
                trace.append(np.asarray(alloc, dtype=float).copy())
        trace.append(np.asarray(scheduler.prediction_trace, dtype=object))
        return trace

    def _assert_identical(self, trained, cluster_factory):  # noqa: F811
        fast = self._run_trace(trained, True, cluster_factory)
        ref = self._run_trace(trained, False, cluster_factory)
        assert len(fast) == len(ref)
        for a, b in zip(fast[:-1], ref[:-1]):
            assert np.array_equal(a, b)
        for rec_a, rec_b in zip(fast[-1], ref[-1]):
            assert rec_a.keys() == rec_b.keys()
            for key in rec_a:
                va, vb = rec_a[key], rec_b[key]
                assert va == vb or (np.isnan(va) and np.isnan(vb))

    def test_trace_identical_clean(self, trained):  # noqa: F811
        self._assert_identical(
            trained, lambda: make_tiny_cluster(users=180, seed=41)
        )

    @pytest.mark.parametrize(
        "profile", ["chaos", "telemetry-dropout", "crash-storm"]
    )
    def test_trace_identical_under_faults(self, trained, profile):  # noqa: F811
        self._assert_identical(
            trained, lambda: make_faulty_cluster(180, 43, profile)
        )


# ----------------------------------------------------------------------
# Property-based differential tests against the oracle
# ----------------------------------------------------------------------

#: Allocation values that make step menus collide (2.0 * 0.3 == 0.6,
#: 6.0 * 0.1 == 0.6) or sit on a bound, next to arbitrary ones.
_CORNER_ALLOCS = (0.2, 0.6, 1.0, 2.0, 6.0, 8.0)


@st.composite
def control_states(draw, max_tiers=8):
    """A random action space and decision state: bounds, current
    allocation (often on a bound or a step-collision value), utilization,
    victim mask, and whether reclamation is allowed."""
    n = draw(st.integers(min_value=1, max_value=max_tiers))
    unit = st.floats(min_value=0.0, max_value=1.0)
    lo = np.array([0.1 + 0.9 * draw(unit) for _ in range(n)]).round(2)
    hi = lo + np.array([0.5 + 7.5 * draw(unit) for _ in range(n)]).round(2)
    current = np.empty(n)
    for i in range(n):
        pick = draw(st.sampled_from(("lo", "hi", "corner", "free")))
        if pick == "lo":
            current[i] = lo[i]
        elif pick == "hi":
            current[i] = hi[i]
        elif pick == "corner":
            current[i] = np.clip(draw(st.sampled_from(_CORNER_ALLOCS)), lo[i], hi[i])
        else:
            current[i] = lo[i] + (hi[i] - lo[i]) * draw(unit)
    util = np.array([1.5 * draw(unit) for _ in range(n)])
    victims = draw(st.one_of(
        st.none(), st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    ))
    allow_down = draw(st.booleans())
    return ActionSpace(lo, hi), current, util, victims, allow_down


class TestCandidateProperties:
    @settings(max_examples=300, deadline=None)
    @given(control_states())
    def test_candidates_fast_matches_oracle(self, state):
        space, current, util, victims, allow_down = state
        assert_candidates_equal(space, current, util, victims, allow_down)


class _StubPredictor:
    """Just enough of a trained predictor for selection: the margin is
    ``QoS - rmse_val`` = 190 ms, thresholds ``(p_down, p_up)``."""

    rmse_val = 10.0
    thresholds = (0.02, 0.08)


#: Predicted latencies and probabilities drawn from small sets that sit
#: exactly on the acceptance margin and thresholds, so many candidates
#: tie on every key at once.
_LATENCIES = (50.0, 150.0, 190.0, 190.5, 400.0)
_PROBS = (0.0, 0.01, 0.02, 0.05, 0.08, 0.5)


class TestSelectProperties:
    @settings(max_examples=200, deadline=None)
    @given(control_states(max_tiers=6), st.data())
    def test_select_fast_matches_oracle_with_ties(self, state, data):
        space, current, util, victims, allow_down = state
        fast = OnlineScheduler(_StubPredictor(), space, QOS)
        ref = ReferenceScheduler(_StubPredictor(), space, QOS)
        # Equal current allocations make equal-total-CPU candidates
        # (one step up on any tier costs the same).
        if data.draw(st.booleans()):
            current = np.full(space.n_tiers, current[0])
        actions = ref.action_space.candidates(
            current, util, victims=victims, allow_scale_down=allow_down
        )
        cset = fast.action_space.candidates_fast(
            current, util, victims=victims, allow_scale_down=allow_down
        )
        b = len(actions)
        # Several decisions in a row: the hold-probability EWMA both
        # paths carry must stay in lockstep too.
        for _ in range(3):
            pred_lat = np.array(data.draw(st.lists(
                st.sampled_from(_LATENCIES), min_size=b, max_size=b
            )))
            prob = np.array(data.draw(st.lists(
                st.sampled_from(_PROBS), min_size=b, max_size=b
            )))
            assert fast._select_fast(cset, pred_lat, prob) == ref._select(
                actions, pred_lat, prob
            )
            assert fast._hold_p_ewma == ref._hold_p_ewma
