"""Property-based tests for the statistics toolkit."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    cdf_points,
    mean,
    pearson_correlation,
    percentile,
)

FINITE = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


@given(values=st.lists(FINITE, min_size=1, max_size=100),
       q=st.floats(min_value=0, max_value=100))
def test_percentile_within_range(values, q):
    result = percentile(values, q)
    # 1-ulp tolerance: interpolation of two equal floats can round up.
    span = max(abs(min(values)), abs(max(values)), 1.0)
    tolerance = 1e-12 * span
    assert min(values) - tolerance <= result <= max(values) + tolerance


@given(values=st.lists(FINITE, min_size=1, max_size=100),
       qs=st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=6))
def test_percentile_monotone_in_q(values, qs):
    qs = sorted(qs)
    results = [percentile(values, q) for q in qs]
    scale = max(1.0, max(abs(v) for v in values))
    assert all(a <= b + 1e-9 * scale for a, b in zip(results, results[1:]))


@given(values=st.lists(FINITE, min_size=1, max_size=100))
def test_cdf_is_valid_distribution_function(values):
    points = cdf_points(values)
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    assert xs == sorted(xs)
    assert ys == sorted(ys)
    assert math.isclose(ys[-1], 1.0)
    assert all(0 < y <= 1 for y in ys)
    assert len(set(xs)) == len(xs)  # ties collapsed


@given(values=st.lists(FINITE, min_size=1, max_size=100))
def test_mean_between_extremes(values):
    assert min(values) - 1e-6 <= mean(values) <= max(values) + 1e-6


@given(
    xs=st.lists(
        st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50, unique=True
    ),
    a=st.floats(min_value=0.01, max_value=100),
    b=st.floats(min_value=-1e6, max_value=1e6),
)
@settings(max_examples=60)
def test_correlation_invariant_under_affine_map(xs, a, b):
    if max(xs) - min(xs) < 1e-3:
        return  # too little spread: variance underflows
    ys = [a * x + b for x in xs]
    if len(set(ys)) < 2:
        return  # degenerate after rounding
    assert pearson_correlation(xs, ys) > 0.999
