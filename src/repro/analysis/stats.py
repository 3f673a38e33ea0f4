"""Small statistics toolkit for the trace analysis and the harness.

Implemented by hand (no scipy dependency in the hot path) so behaviour
is exact and documented: percentiles use linear interpolation between
order statistics, matching ``numpy.percentile``'s default.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation.

    Matches numpy's default ("linear") method so harness output is
    directly comparable with any numpy-based post-processing.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[lo])
    frac = rank - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


def percentiles(values: Sequence[float], qs: Sequence[float]) -> List[float]:
    """Vector form of :func:`percentile` (single sort)."""
    if not values:
        raise ValueError("percentiles of empty sequence")
    ordered = sorted(values)
    out = []
    n = len(ordered)
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if n == 1:
            out.append(float(ordered[0]))
            continue
        rank = (n - 1) * (q / 100.0)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            out.append(float(ordered[lo]))
        else:
            frac = rank - lo
            out.append(float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac))
    return out


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as ``(value, F(value))`` pairs, one per distinct value.

    ``F(v)`` is the fraction of samples ``<= v``; the last point always
    has ``F = 1.0``.  This is the exact series the paper's CDF figures
    (Figs 3, 4, 6, 7, 8, 11, 12, 13) plot.
    """
    if not values:
        raise ValueError("cdf of empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    points: List[Tuple[float, float]] = []
    for i, v in enumerate(ordered):
        if i + 1 < n and ordered[i + 1] == v:
            continue  # collapse ties onto the last occurrence
        points.append((float(v), (i + 1) / n))
    return points


def cdf_at(values: Sequence[float], x: float) -> float:
    """Empirical CDF evaluated at ``x``: fraction of samples <= x."""
    if not values:
        raise ValueError("cdf of empty sequence")
    return sum(1 for v in values if v <= x) / len(values)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


#: Two-sided 95% Student-t critical values, indexed by degrees of
#: freedom 1..30; beyond 30 the normal approximation (1.960) is used.
#: Hardcoded so the harness stays scipy-free and bit-stable.
_T_CRITICAL_95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def sample_std(values: Sequence[float]) -> float:
    """Unbiased (n-1) sample standard deviation; 0.0 for n < 2."""
    n = len(values)
    if n < 2:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (n - 1))


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float, float]:
    """``(mean, low, high)`` of a two-sided Student-t CI over the mean.

    This is the aggregation the multi-seed sweeps report (mean +-
    t * s / sqrt(n) over repeated randomized trials, the CliqueStream
    evaluation methodology).  A single observation has zero-width
    bounds.  Only the 95% level is tabulated.
    """
    if not values:
        raise ValueError("confidence interval of empty sequence")
    if abs(confidence - 0.95) > 1e-9:
        raise ValueError("only confidence=0.95 is supported")
    m = mean(values)
    n = len(values)
    if n == 1:
        return (m, m, m)
    df = n - 1
    t = _T_CRITICAL_95[df - 1] if df <= len(_T_CRITICAL_95) else 1.960
    half = t * sample_std(values) / math.sqrt(n)
    return (m, m - half, m + half)


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length samples.

    Used for the Fig 5 subscriptions-vs-views relationship and the
    favorites-vs-views observation under Fig 8.
    """
    if len(xs) != len(ys):
        raise ValueError("sequences must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    mx = mean(xs)
    my = mean(ys)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        raise ValueError("zero variance sample")
    return cov / math.sqrt(vx * vy)


def log_log_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log(y)`` on ``log(x)``.

    A Zipf(s) rank-views profile has slope ``-s`` in log-log space;
    tests use this to verify Fig 9's within-channel Zipf exponent.
    Points with non-positive coordinates are skipped.
    """
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        raise ValueError("need at least two positive points")
    mx = mean([p[0] for p in pts])
    my = mean([p[1] for p in pts])
    num = sum((x - mx) * (y - my) for x, y in pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    if den == 0:
        raise ValueError("degenerate x values")
    return num / den
