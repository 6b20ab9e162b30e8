"""Action-space tests (paper Table 1).

The Table 1 semantics are checked on the Action-list generator in
:mod:`tests.oracles.control`, whose labelled actions make them easy to
read; ``tests/core/test_fast_control.py`` holds the production matrix
generator row-for-row equal to it.  :class:`TestCandidatesFastContract`
checks the invariants every production candidate row must satisfy on
random inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.actions import Action, ActionKind, ActionSpace
from tests.oracles.control import reference_action_space


@pytest.fixture
def space():
    return reference_action_space(ActionSpace(
        min_alloc=np.full(4, 0.2),
        max_alloc=np.full(4, 8.0),
        util_cap=0.6,
    ))


def kinds_of(actions):
    return {a.kind for a in actions}


class TestCandidateGeneration:
    def test_contains_table1_kinds(self, space):
        current = np.full(4, 2.0)
        util = np.array([0.1, 0.2, 0.3, 0.4])
        victims = np.array([True, False, False, False])
        actions = space.candidates(current, util, victims=victims)
        got = kinds_of(actions)
        assert ActionKind.HOLD in got
        assert ActionKind.SCALE_DOWN in got
        assert ActionKind.SCALE_DOWN_BATCH in got
        assert ActionKind.SCALE_UP in got
        assert ActionKind.SCALE_UP_ALL in got
        assert ActionKind.SCALE_UP_VICTIM in got

    def test_exactly_one_hold(self, space):
        actions = space.candidates(np.full(4, 2.0), np.full(4, 0.3))
        holds = [a for a in actions if a.kind is ActionKind.HOLD]
        assert len(holds) == 1
        np.testing.assert_allclose(holds[0].alloc, 2.0)

    def test_all_candidates_within_bounds(self, space):
        actions = space.candidates(np.full(4, 2.0), np.full(4, 0.3))
        for action in actions:
            assert np.all(action.alloc >= space.min_alloc - 1e-12)
            assert np.all(action.alloc <= space.max_alloc + 1e-12)

    def test_allow_scale_down_false_removes_downs(self, space):
        actions = space.candidates(
            np.full(4, 2.0), np.full(4, 0.1), allow_scale_down=False
        )
        got = kinds_of(actions)
        assert ActionKind.SCALE_DOWN not in got
        assert ActionKind.SCALE_DOWN_BATCH not in got
        assert ActionKind.SCALE_UP in got

    def test_util_cap_blocks_hot_tier_downscale(self, space):
        current = np.full(4, 2.0)
        util = np.array([0.59, 0.1, 0.1, 0.1])  # tier 0 busy = 1.18 cores
        actions = space.candidates(current, util)
        for action in actions:
            if action.kind is ActionKind.SCALE_DOWN and action.alloc[0] < 2.0:
                projected = 0.59 * 2.0 / action.alloc[0]
                assert projected <= space.util_cap + 1e-9

    def test_hot_tier_does_not_veto_other_downscales(self, space):
        """Regression: a tier already above the cap must not block
        reclaiming other idle tiers."""
        current = np.full(4, 2.0)
        util = np.array([0.9, 0.01, 0.01, 0.01])
        actions = space.candidates(current, util)
        downs = [
            a for a in actions
            if a.kind in (ActionKind.SCALE_DOWN, ActionKind.SCALE_DOWN_BATCH)
        ]
        assert downs, "idle tiers should still be reclaimable"
        for action in downs:
            assert action.alloc[0] == pytest.approx(2.0)  # hot tier untouched

    def test_at_floor_no_scale_down(self, space):
        current = np.full(4, 0.2)
        actions = space.candidates(current, np.full(4, 0.05))
        got = kinds_of(actions)
        assert ActionKind.SCALE_DOWN not in got
        assert ActionKind.SCALE_DOWN_BATCH not in got

    def test_at_ceiling_no_single_scale_up(self, space):
        current = np.full(4, 8.0)
        actions = space.candidates(current, np.full(4, 0.3))
        assert ActionKind.SCALE_UP not in kinds_of(actions)
        assert ActionKind.SCALE_UP_ALL not in kinds_of(actions)

    def test_victims_scale_up(self, space):
        current = np.full(4, 2.0)
        victims = np.array([False, True, True, False])
        actions = space.candidates(current, np.full(4, 0.3), victims=victims)
        victim_ups = [a for a in actions if a.kind is ActionKind.SCALE_UP_VICTIM]
        assert len(victim_ups) == 1
        changed = victim_ups[0].alloc != current
        np.testing.assert_array_equal(changed, victims)

    def test_no_victim_action_without_victims(self, space):
        actions = space.candidates(np.full(4, 2.0), np.full(4, 0.3))
        assert ActionKind.SCALE_UP_VICTIM not in kinds_of(actions)

    def test_batch_targets_least_utilized(self, space):
        current = np.full(4, 2.0)
        util = np.array([0.5, 0.05, 0.4, 0.02])
        actions = space.candidates(current, util)
        batch2 = [
            a for a in actions
            if a.kind is ActionKind.SCALE_DOWN_BATCH and "2 least" in a.description
        ]
        assert batch2
        reduced = np.flatnonzero(batch2[0].alloc < current)
        assert set(reduced) == {1, 3}

    def test_candidates_are_unique(self, space):
        """Regression: distinct steps clipping to the same boundary used
        to produce duplicate allocations that were scored twice."""
        for current_val in (0.3, 2.0, 7.9):  # near floor, middle, near ceiling
            current = np.full(4, current_val)
            victims = np.array([True, False, False, True])
            actions = space.candidates(
                current, np.full(4, 0.1), victims=victims
            )
            keys = [tuple(np.round(a.alloc, 9)) for a in actions]
            assert len(keys) == len(set(keys))

    def test_dedupe_keeps_most_specific_kind(self, space):
        """When a victim boost coincides with a generic single-tier
        upscale, the victim action's label survives."""
        current = np.full(4, 2.0)
        victims = np.array([True, False, False, False])
        actions = space.candidates(
            current, np.full(4, 0.3), victims=victims
        )
        got = kinds_of(actions)
        assert ActionKind.SCALE_UP_VICTIM in got
        assert ActionKind.SCALE_UP in got

    def test_max_allocation_action(self, space):
        action = space.max_allocation_action()
        np.testing.assert_allclose(action.alloc, space.max_alloc)
        assert action.kind is ActionKind.SCALE_UP_ALL

    def test_total_cpu(self):
        action = Action(ActionKind.HOLD, np.array([1.0, 2.0]), "hold")
        assert action.total_cpu == pytest.approx(3.0)


@st.composite
def decision_inputs(draw):
    """An action space plus an in-bounds decision input for it."""
    n = draw(st.integers(min_value=1, max_value=8))
    unit = st.floats(min_value=0.0, max_value=1.0)
    floor = draw(hnp.arrays(np.float64, n, elements=st.floats(0.05, 2.0)))
    span = draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 10.0)))
    where = draw(hnp.arrays(np.float64, n, elements=unit))
    ceiling = floor + span
    current = np.clip(floor + where * span, floor, ceiling)
    util = draw(hnp.arrays(
        np.float64, n,
        elements=st.one_of(st.floats(0.0, 2.0), st.just(float("nan"))),
    ))
    victims = draw(st.none() | hnp.arrays(np.bool_, n))
    space = ActionSpace(
        min_alloc=floor,
        max_alloc=ceiling,
        util_cap=draw(st.floats(min_value=0.1, max_value=1.0)),
    )
    return space, current, util, victims, draw(st.booleans())


class TestCandidatesFastContract:
    @settings(max_examples=300, deadline=None)
    @given(decision_inputs())
    def test_every_row_is_a_valid_distinct_allocation(self, inputs):
        space, current, util, victims, allow_down = inputs
        cands = space.candidates_fast(
            current, util, victims=victims, allow_scale_down=allow_down
        )
        allocs = cands.allocs
        assert allocs.shape == (len(cands), space.n_tiers)
        assert len(cands) >= 1
        assert np.isfinite(allocs).all()
        assert (allocs >= space.min_alloc).all()
        assert (allocs <= space.max_alloc).all()
        rounded = {tuple(row) for row in np.round(allocs, 9)}
        assert len(rounded) == len(cands)
        assert np.array_equal(cands.total_cpu, allocs.sum(axis=1))
        assert cands.kinds.shape == (len(cands),)
