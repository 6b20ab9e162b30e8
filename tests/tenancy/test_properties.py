"""Property tests for the tenancy layer: arbiter grants and credit clamps.

Random floors, demands, keeps, violation flags and budgets that cover
the floors, over several rounds so the credit ledger (and with it the
arbitration weights) evolves between calls.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tenancy.arbiter import (
    AllocationRequest,
    CreditArbiter,
    StaticPartitionArbiter,
)
from repro.tenancy.credit import CreditConfig, CreditLedger

TOL = 1e-6
NAMES = ("a", "b", "c", "d", "e")

cores = st.floats(0.0, 60.0, allow_nan=False, allow_infinity=False)


@st.composite
def rounds(draw):
    """``(qos_ms, floors, [(demands, keeps, violating)], budget)``."""
    n = draw(st.integers(1, len(NAMES)))
    qos_ms = {
        NAMES[i]: draw(st.floats(50.0, 1000.0, allow_nan=False))
        for i in range(n)
    }
    floors = draw(st.lists(st.floats(0.0, 20.0, allow_nan=False),
                           min_size=n, max_size=n))
    steps = draw(st.lists(
        st.tuples(
            st.lists(cores, min_size=n, max_size=n),
            st.lists(cores, min_size=n, max_size=n),
            st.lists(st.booleans(), min_size=n, max_size=n),
        ),
        min_size=1, max_size=6,
    ))
    # Any budget that covers the floors, from exactly the floors up to
    # far more than anyone can demand.
    budget = sum(floors) + draw(st.floats(0.0, 250.0, allow_nan=False))
    return qos_ms, floors, steps, max(budget, 1e-3)


def requests(qos_ms, floors, demands, keeps, violating):
    return [
        AllocationRequest(tenant=name, demand=demands[i], keep=keeps[i],
                          floor=floors[i], violating=violating[i])
        for i, name in enumerate(qos_ms)
    ]


class TestCreditArbiterProperties:
    @settings(max_examples=200, deadline=None)
    @given(rounds(), st.integers(0, 2**16))
    def test_grants_within_budget_floor_and_demand(self, case, seed):
        qos_ms, floors, steps, budget = case
        arbiter = CreditArbiter(budget, qos_ms, seed=seed)
        for interval, (demands, keeps, violating) in enumerate(steps):
            reqs = requests(qos_ms, floors, demands, keeps, violating)
            decision = arbiter.arbitrate(reqs, interval, float(interval))
            assert decision.total_granted <= budget + TOL
            uncontended = (
                sum(max(r.demand, r.floor) for r in reqs) <= budget + 1e-9
            )
            for r in reqs:
                grant = decision.grants[r.tenant].grant
                cap = max(r.demand, r.floor)
                assert r.floor - TOL <= grant <= cap + TOL
                if uncontended:
                    assert grant == cap
            for credit in arbiter.ledger.snapshot().values():
                cfg = arbiter.ledger.config
                assert cfg.min_credit <= credit <= cfg.max_credit


class TestStaticPartitionProperties:
    @settings(max_examples=200, deadline=None)
    @given(rounds())
    def test_grant_never_exceeds_slice(self, case):
        qos_ms, floors, steps, budget = case
        arbiter = StaticPartitionArbiter(budget, len(qos_ms))
        for interval, (demands, keeps, violating) in enumerate(steps):
            reqs = requests(qos_ms, floors, demands, keeps, violating)
            decision = arbiter.arbitrate(reqs, interval, float(interval))
            for r in reqs:
                assert decision.grants[r.tenant].grant <= arbiter.slice_cpu


@st.composite
def credit_configs(draw):
    lo = draw(st.floats(0.01, 2.0, allow_nan=False))
    hi = draw(st.floats(lo, 10.0, allow_nan=False))
    return CreditConfig(
        base_credit=draw(st.floats(lo, hi, allow_nan=False)),
        accrual_rate=draw(st.floats(0.0, 3.0, allow_nan=False)),
        violation_decay=draw(st.floats(0.01, 1.0, allow_nan=False)),
        spend_rate=draw(st.floats(0.0, 2.0, allow_nan=False)),
        min_credit=lo,
        max_credit=hi,
    )


ledger_ops = st.one_of(
    st.just(("reset",)),
    st.tuples(
        st.just("settle"),
        st.sets(st.sampled_from(NAMES[:3])),
        st.dictionaries(st.sampled_from(NAMES[:3]),
                        st.floats(-50.0, 500.0, allow_nan=False)),
    ),
)


class TestCreditLedgerProperties:
    @settings(max_examples=200, deadline=None)
    @given(credit_configs(), st.lists(ledger_ops, max_size=12))
    def test_balances_stay_inside_clamps(self, config, ops):
        ledger = CreditLedger.from_qos(
            {"a": 500.0, "b": 200.0, "c": 300.0}, config
        )

        def check():
            for credit in ledger.snapshot().values():
                assert config.min_credit <= credit <= config.max_credit

        check()
        for op in ops:
            if op[0] == "reset":
                ledger.reset()
            else:
                ledger.settle(violating=op[1], overdraw=op[2])
            check()

    def test_opening_balance_outside_clamps_rejected(self):
        with pytest.raises(ValueError):
            CreditLedger.from_qos({"a": 100.0}, CreditConfig(base_credit=10.0))
        with pytest.raises(ValueError):
            CreditConfig(base_credit=0.05, min_credit=0.1)
