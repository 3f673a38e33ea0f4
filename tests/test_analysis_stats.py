"""Unit tests for the statistics toolkit."""

import pytest

from repro.analysis.stats import (
    cdf_at,
    cdf_points,
    log_log_slope,
    mean,
    mean_confidence_interval,
    pearson_correlation,
    percentile,
    percentiles,
    sample_std,
)


class TestPercentile:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0

    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2.0

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_extremes(self):
        values = [5, 1, 9, 3]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_matches_numpy(self):
        import numpy as np

        values = [1.5, 9.2, 4.4, 7.7, 2.0, 8.8, 3.3]
        for q in (1, 25, 50, 75, 99):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_percentiles_vector_form(self):
        values = [4, 2, 8, 6]
        assert percentiles(values, [0, 50, 100]) == [
            percentile(values, 0),
            percentile(values, 50),
            percentile(values, 100),
        ]

    def test_percentiles_empty_rejected(self):
        with pytest.raises(ValueError):
            percentiles([], [50])


class TestCdf:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cdf_points([])

    def test_last_point_is_one(self):
        assert cdf_points([3, 1, 2])[-1][1] == 1.0

    def test_monotone(self):
        points = cdf_points([5, 3, 8, 1, 9, 9, 2])
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)

    def test_ties_collapse(self):
        points = cdf_points([1, 1, 1, 2])
        assert points == [(1.0, 0.75), (2.0, 1.0)]

    def test_cdf_at(self):
        values = [1, 2, 3, 4]
        assert cdf_at(values, 2) == 0.5
        assert cdf_at(values, 0) == 0.0
        assert cdf_at(values, 4) == 1.0


class TestCorrelation:
    def test_perfect_positive(self):
        assert pearson_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            pearson_correlation([1, 2], [1])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            pearson_correlation([1], [1])

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            pearson_correlation([1, 1, 1], [1, 2, 3])

    def test_matches_numpy(self):
        import numpy as np

        xs = [1.0, 4.0, 2.5, 9.1, 5.5]
        ys = [2.0, 3.5, 2.2, 8.0, 6.1]
        assert pearson_correlation(xs, ys) == pytest.approx(
            float(np.corrcoef(xs, ys)[0, 1])
        )


class TestLogLogSlope:
    def test_zipf_slope_recovered(self):
        xs = list(range(1, 101))
        ys = [1000.0 / x for x in xs]
        assert log_log_slope(xs, ys) == pytest.approx(-1.0)

    def test_steeper_exponent(self):
        xs = list(range(1, 101))
        ys = [1000.0 / (x ** 2) for x in xs]
        assert log_log_slope(xs, ys) == pytest.approx(-2.0)

    def test_nonpositive_points_skipped(self):
        assert log_log_slope([0, 1, 2, 4], [5, 10, 5, 2.5]) == pytest.approx(-1.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            log_log_slope([1, 1], [2, 3])


class TestMean:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0
        with pytest.raises(ValueError):
            mean([])


class TestConfidenceInterval:
    def test_sample_std_matches_hand_computation(self):
        # values 2, 4, 6: mean 4, squared deviations 4+0+4, n-1 = 2.
        assert sample_std([2.0, 4.0, 6.0]) == pytest.approx(2.0)

    def test_sample_std_degenerate(self):
        assert sample_std([]) == 0.0
        assert sample_std([3.0]) == 0.0

    def test_interval_brackets_mean(self):
        m, lo, hi = mean_confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert m == pytest.approx(2.5)
        assert lo < m < hi
        # t(df=3) = 3.182, s = sqrt(5/3), half-width = t*s/sqrt(4)
        assert hi - m == pytest.approx(3.182 * (5.0 / 3.0) ** 0.5 / 2.0)

    def test_single_observation_zero_width(self):
        assert mean_confidence_interval([7.0]) == (7.0, 7.0, 7.0)

    def test_identical_values_zero_width(self):
        m, lo, hi = mean_confidence_interval([5.0, 5.0, 5.0])
        assert m == lo == hi == 5.0

    def test_large_sample_uses_normal_approximation(self):
        values = [float(i % 2) for i in range(40)]  # df=39 > 30
        m, lo, hi = mean_confidence_interval(values)
        assert hi - m == pytest.approx(1.960 * sample_std(values) / 40 ** 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])

    def test_unsupported_confidence_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], confidence=0.99)
