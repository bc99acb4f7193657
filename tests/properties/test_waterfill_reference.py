"""Exact-equality tests of the optimised waterfill against a reference.

:func:`repro.gpu.device.waterfill` grew bit-exact fast paths (single
demand, comfortably-under-capacity batches).  These tests pin the claim
that the fast paths are *shortcuts*, not approximations: the optimised
function must return the exact same floats as the plain round-based
algorithm on every input, so simulation results can never depend on which
branch ran.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import waterfill, waterfill2

_EPS = 1e-9  # must match device._EPS


def reference_waterfill(demands: list[float], capacity: float) -> list[float]:
    """The round-based max-min fair allocation, with no fast paths.

    This is the algorithm :func:`waterfill` implemented before the fast
    paths were added, kept verbatim as the behavioural oracle.
    """
    n = len(demands)
    alloc = [0.0] * n
    if capacity <= _EPS:
        return alloc
    unsatisfied = [i for i in range(n) if demands[i] > _EPS]
    remaining = capacity
    while unsatisfied and remaining > _EPS:
        share = remaining / len(unsatisfied)
        capped = []
        still = []
        for i in unsatisfied:
            if demands[i] <= share + _EPS:
                capped.append(i)
            else:
                still.append(i)
        if not capped:
            for i in unsatisfied:
                alloc[i] = share
            return alloc
        for i in capped:
            alloc[i] = demands[i]
            remaining -= demands[i]
        unsatisfied = still
    return alloc


def assert_bit_identical(demands: list[float], capacity: float) -> None:
    fast = waterfill(demands, capacity)
    slow = reference_waterfill(list(demands), capacity)
    assert len(fast) == len(slow)
    for got, want in zip(fast, slow):
        # Exact float equality, deliberately: not approximately equal.
        assert got == want, (demands, capacity, fast, slow)


demand_values = st.one_of(
    st.floats(min_value=0.0, max_value=1e13, allow_nan=False),
    st.just(math.inf),
)


class TestWaterfillMatchesReference:
    @given(
        demands=st.lists(demand_values, min_size=1, max_size=12),
        capacity=st.floats(min_value=0.0, max_value=1e13, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_exact_equality_general(self, demands, capacity):
        assert_bit_identical(demands, capacity)

    @given(demand=demand_values, capacity=st.floats(min_value=0.0, max_value=1e13))
    @settings(max_examples=200)
    def test_exact_equality_single_demand(self, demand, capacity):
        """The n == 1 fast path."""
        assert_bit_identical([demand], capacity)

    @given(
        demands=st.lists(
            st.floats(min_value=0.0, max_value=1e9), min_size=2, max_size=12
        ),
        headroom=st.floats(min_value=1.0, max_value=1e12),
    )
    @settings(max_examples=200)
    def test_exact_equality_under_demand(self, demands, headroom):
        """The everyone-gets-their-demand fast path (sum < capacity - 1)."""
        capacity = sum(demands) + headroom
        assert_bit_identical(demands, capacity)

    @given(
        demands=st.lists(
            st.floats(min_value=1.0, max_value=1e12), min_size=2, max_size=12
        ),
        squeeze=st.floats(min_value=0.1, max_value=0.999),
    )
    @settings(max_examples=200)
    def test_exact_equality_over_demand(self, demands, squeeze):
        """The contended region where the round loop actually iterates."""
        capacity = sum(demands) * squeeze
        assert_bit_identical(demands, capacity)


class TestWaterfillEdgeCases:
    def test_empty_demand_list(self):
        assert waterfill([], 100.0) == []
        assert waterfill([], 0.0) == []

    def test_zero_capacity_gives_zeros(self):
        assert waterfill([5.0, math.inf, 0.0], 0.0) == [0.0, 0.0, 0.0]

    def test_all_inf_demands_split_capacity_equally(self):
        allocs = waterfill([math.inf, math.inf, math.inf, math.inf], 100.0)
        assert allocs == [25.0, 25.0, 25.0, 25.0]
        assert_bit_identical([math.inf] * 4, 100.0)

    def test_capacity_below_every_demand_splits_equally(self):
        allocs = waterfill([50.0, 60.0, 70.0], 30.0)
        assert allocs == [10.0, 10.0, 10.0]
        assert_bit_identical([50.0, 60.0, 70.0], 30.0)

    def test_demand_exactly_at_fair_share_is_capped(self):
        # share = 30 in round 1; the 30.0 demand caps at exactly 30.0 and
        # the leftover goes to the others.
        assert_bit_identical([30.0, 90.0, 90.0], 90.0)

    def test_zero_demands_stay_zero(self):
        allocs = waterfill([0.0, 10.0, 0.0], 100.0)
        assert allocs == [0.0, 10.0, 0.0]

    def test_single_demand_over_capacity_is_clamped(self):
        assert waterfill([500.0], 200.0) == [200.0]

    def test_single_demand_under_capacity_is_exact(self):
        assert waterfill([123.456], 200.0) == [123.456]


def _signed(values) -> list[tuple[float, float]]:
    """Each float with its sign bit, so 0.0 and -0.0 compare unequal."""
    return [(v, math.copysign(1.0, v)) for v in values]


def assert_pair_matches(d0: float, d1: float, capacity: float) -> None:
    pair = waterfill2(d0, d1, capacity)
    general = waterfill([d0, d1], capacity)
    assert _signed(pair) == _signed(general), (d0, d1, capacity, pair, general)


class TestWaterfill2MatchesWaterfill:
    """The unrolled two-demand water-fill against the general function."""

    @given(d0=demand_values, d1=demand_values, capacity=st.floats(0.0, 1e13))
    @settings(max_examples=500)
    def test_exact_equality(self, d0, d1, capacity):
        assert_pair_matches(d0, d1, capacity)

    @given(
        capacity=st.floats(min_value=1e-12, max_value=1e13),
        offset0=st.sampled_from([-2 * _EPS, -_EPS, 0.0, _EPS, 2 * _EPS]),
        offset1=st.sampled_from([-2 * _EPS, -_EPS, 0.0, _EPS, 2 * _EPS]),
        other=st.one_of(demand_values, st.just(0.0)),
        swap=st.booleans(),
    )
    @settings(max_examples=300)
    def test_demands_at_the_fair_share_boundary(self, capacity, offset0, offset1, other, swap):
        """A demand at ``capacity/2 ± _EPS`` sits on round 1's capping test."""
        near = capacity / 2 + offset0
        assert_pair_matches(*((other, near) if swap else (near, other)), capacity)
        assert_pair_matches(capacity / 2 + offset0, capacity / 2 + offset1, capacity)

    @given(
        capacity=st.floats(min_value=0.5, max_value=1e13),
        split=st.floats(min_value=0.0, max_value=1.0),
        nudge=st.sampled_from([-1.0, -_EPS, 0.0, _EPS, 1.0]),
    )
    @settings(max_examples=300)
    def test_total_demand_at_the_under_capacity_margin(self, capacity, split, nudge):
        """``d0 + d1`` at ``capacity - 1.0`` sits on the shortcut's edge."""
        total = capacity - 1.0 + nudge
        d0 = max(0.0, total * split)
        d1 = max(0.0, total - d0)
        assert_pair_matches(d0, d1, capacity)
        assert_pair_matches(capacity - 1.0, 0.0, capacity)
        assert_pair_matches(capacity - 1.0, math.inf, capacity)

    def test_hand_picked_cases(self):
        for d0, d1, capacity in [
            (0.0, 0.0, 100.0),
            (-0.0, 0.0, 100.0),
            (0.0, -0.0, 100.0),
            (5.0, 0.0, 0.0),
            (math.inf, math.inf, 100.0),
            (math.inf, 10.0, 100.0),
            (10.0, math.inf, 100.0),
            (30.0, 90.0, 100.0),
            (90.0, 30.0, 100.0),
            (50.0, 50.0, 100.0),
            (50.0, 50.0, 99.0),
            (100.0, _EPS / 2, 100.0),
            (_EPS / 2, _EPS / 2, 100.0),
            (60.0, 60.0, 100.0),
            (100.0 - _EPS, 100.0, 100.0),
        ]:
            assert_pair_matches(d0, d1, capacity)
