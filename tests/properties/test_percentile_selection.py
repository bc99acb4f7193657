"""Differential property: selection-based summaries equal a sort-based reference.

``repro.serving.metrics`` reads percentiles off one ``numpy.partition`` and
counts SLO hits with a vectorised comparison.  The sort-based reference
below (``sorted()`` plus linear interpolation, and ``bisect_right``) is the
formulation the summaries were defined with; it lives only here.  The two
must agree bit for bit on any sample list, NaN and infinities included.

Samples pass through ``+ 0.0`` first: that maps ``-0.0`` to ``0.0``.  A
stable sort and a selection may pick different zeros from a list holding
both, and the simulator never produces ``-0.0`` (every sample is a later
time minus an earlier one).
"""

import math
import random
import struct
from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.metrics import _Samples, percentile


def _percentile_of_sorted(ordered: list[float], pct: float) -> float:
    if not ordered:
        return math.nan
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def _reference(values: list[float], pcts: list[float], bound: float):
    ordered = sorted(v for v in values if not math.isnan(v))
    return [_percentile_of_sorted(ordered, p) for p in pcts], bisect_right(ordered, bound)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


samples = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, 0.05, math.inf, -math.inf, math.nan]),
)
pcts = st.lists(
    st.one_of(st.sampled_from([0.0, 50.0, 99.0, 100.0]), st.floats(min_value=0, max_value=100)),
    min_size=1,
    max_size=4,
)
bounds = st.one_of(samples, st.just(0.05))
small_lists = st.lists(samples, max_size=3)


@st.composite
def large_lists(draw):
    """1000+ samples drawn from a few distinct values (many duplicates)."""
    pool = draw(st.lists(samples, min_size=1, max_size=12))
    size = draw(st.integers(min_value=1000, max_value=3000))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return [rng.choice(pool) for _ in range(size)]


any_lists = st.one_of(small_lists, large_lists(), st.lists(samples, max_size=40))


def _check(values, wanted, bound):
    values = [v + 0.0 for v in values]
    expected, expected_count = _reference(values, wanted, bound)
    got = _Samples.of(values)
    assert [_bits(v) for v in got.select(*wanted)] == [_bits(v) for v in expected]
    assert got.count_at_most(bound) == expected_count
    for pct, value in zip(wanted, expected):
        assert _bits(percentile(values, pct)) == _bits(value)


class TestSelectionMatchesSort:
    @given(values=small_lists, wanted=pcts, bound=bounds)
    @settings(max_examples=300, deadline=None)
    def test_tiny_lists(self, values, wanted, bound):
        _check(values, wanted, bound)

    @given(values=large_lists(), wanted=pcts, bound=bounds)
    @settings(max_examples=60, deadline=None)
    def test_large_lists_with_duplicates(self, values, wanted, bound):
        _check(values, wanted, bound)

    @given(values=st.lists(samples, max_size=60), wanted=pcts, bound=bounds)
    @settings(max_examples=200, deadline=None)
    def test_short_lists(self, values, wanted, bound):
        _check(values, wanted, bound)

    @given(parts=st.lists(any_lists, min_size=1, max_size=4), wanted=pcts, bound=bounds)
    @settings(max_examples=60, deadline=None)
    def test_pooled_samples_match_the_concatenation(self, parts, wanted, bound):
        parts = [[v + 0.0 for v in part] for part in parts]
        joined = [v for part in parts for v in part]
        pooled = _Samples.pool(_Samples.of(part) for part in parts)
        expected, expected_count = _reference(joined, wanted, bound)
        assert [_bits(v) for v in pooled.select(*wanted)] == [_bits(v) for v in expected]
        assert pooled.count_at_most(bound) == expected_count
        assert pooled.size == len(joined)
        mean = sum(joined) / len(joined) if joined else math.nan
        assert _bits(pooled.mean()) == _bits(mean)

    def test_selection_leaves_the_input_list_alone(self):
        values = [3.0, 1.0, math.nan, 2.0]
        samples = _Samples.of(values)
        samples.select(0.0, 50.0, 100.0)
        assert values[:2] == [3.0, 1.0] and math.isnan(values[2]) and values[3] == 2.0
        assert samples.mean() != samples.mean()  # NaN stays in the mean
