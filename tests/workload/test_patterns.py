"""Load pattern tests, including property-based invariants."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.workload.patterns import (
    ConstantLoad,
    DiurnalLoad,
    StepLoad,
)


class TestConstantLoad:
    def test_constant(self):
        load = ConstantLoad(42)
        assert load.users(0) == 42
        assert load.users(1e6) == 42

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLoad(-1)

    @given(st.floats(min_value=0, max_value=1e5), st.floats(min_value=0, max_value=1e6))
    def test_property_time_invariant(self, users, time):
        assert ConstantLoad(users).users(time) == users


class TestStepLoad:
    def test_steps_apply_in_order(self):
        load = StepLoad(((0.0, 10.0), (100.0, 50.0), (200.0, 20.0)))
        assert load.users(0) == 10
        assert load.users(99.9) == 10
        assert load.users(100) == 50
        assert load.users(500) == 20

    def test_before_first_step_uses_first_value(self):
        load = StepLoad(((50.0, 30.0),))
        assert load.users(0) == 30

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            StepLoad(((10.0, 1.0), (5.0, 2.0)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            StepLoad(())


class TestDiurnalLoad:
    def test_starts_at_trough_with_default_phase(self):
        load = DiurnalLoad(base=100, amplitude=50, period=600)
        assert load.users(0) == pytest.approx(50.0)
        assert load.users(300) == pytest.approx(150.0)  # half period later: peak

    def test_period_wraps(self):
        load = DiurnalLoad(base=100, amplitude=50, period=600)
        assert load.users(0) == pytest.approx(load.users(600))

    def test_floors_at_zero(self):
        load = DiurnalLoad(base=10, amplitude=50)
        assert load.users(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalLoad(base=10, amplitude=5, period=0)
        with pytest.raises(ValueError):
            DiurnalLoad(base=10, amplitude=-5)

    @given(st.floats(min_value=0, max_value=1e5))
    def test_property_bounded(self, time):
        load = DiurnalLoad(base=100, amplitude=40, period=300)
        assert 60.0 - 1e-9 <= load.users(time) <= 140.0 + 1e-9
