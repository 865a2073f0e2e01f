"""Tests for the online statistics collectors."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import (
    BucketHistogram,
    OnlineStats,
    percentile,
)


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_single_sample(self):
        assert percentile([3.0], 90) == 3.0

    def test_median_of_odd(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5, 1, 9, 3]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 9

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    def test_percentile_within_data_range(self, data):
        value = percentile(data, 90)
        assert min(data) <= value <= max(data)


class TestOnlineStats:
    def test_empty_defaults(self):
        stats = OnlineStats()
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert stats.count == 0

    def test_mean_and_variance_match_reference(self):
        data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        stats = OnlineStats()
        stats.extend(data)
        mean = sum(data) / len(data)
        variance = sum((x - mean) ** 2 for x in data) / (len(data) - 1)
        assert stats.mean == pytest.approx(mean)
        assert stats.variance == pytest.approx(variance)
        assert stats.stddev == pytest.approx(math.sqrt(variance))

    def test_min_max_total(self):
        stats = OnlineStats()
        stats.extend([3.0, -1.0, 7.0])
        assert stats.minimum == -1.0
        assert stats.maximum == 7.0
        assert stats.total == pytest.approx(9.0)

    def test_merge_equivalent_to_combined(self):
        a_data = [1.0, 2.0, 3.0]
        b_data = [10.0, 20.0]
        a, b, combined = OnlineStats(), OnlineStats(), OnlineStats()
        a.extend(a_data)
        b.extend(b_data)
        combined.extend(a_data + b_data)
        merged = a.merge(b)
        assert merged.count == combined.count
        assert merged.mean == pytest.approx(combined.mean)
        assert merged.variance == pytest.approx(combined.variance)
        assert merged.minimum == combined.minimum
        assert merged.maximum == combined.maximum

    def test_merge_with_empty(self):
        a = OnlineStats()
        a.extend([1.0, 2.0])
        merged = a.merge(OnlineStats())
        assert merged.mean == pytest.approx(1.5)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=100))
    def test_welford_matches_two_pass(self, data):
        stats = OnlineStats()
        stats.extend(data)
        mean = sum(data) / len(data)
        assert stats.mean == pytest.approx(mean, abs=1e-6)


class TestBucketHistogram:
    def test_requires_edges(self):
        with pytest.raises(ValueError):
            BucketHistogram([])

    def test_requires_sorted_unique(self):
        with pytest.raises(ValueError):
            BucketHistogram([5, 3])
        with pytest.raises(ValueError):
            BucketHistogram([3, 3])

    def test_bucket_assignment(self):
        histogram = BucketHistogram([5, 10, 20])
        for value in (5, 6, 10, 15, 25, 1):
            histogram.add(value)
        # <=5: {5, 1}; (5,10]: {6, 10}; (10,20]: {15}; >20: {25}
        assert histogram.counts == [2, 2, 1, 1]

    def test_cdf_ends_at_one(self):
        histogram = BucketHistogram([1, 2])
        histogram.extend([0.5, 1.5, 5.0])
        cdf = histogram.cdf()
        assert cdf[-1] == pytest.approx(1.0)
        assert cdf == sorted(cdf)

    def test_pdf_sums_to_one(self):
        histogram = BucketHistogram([1, 2, 3])
        histogram.extend([0.5, 1.5, 2.5, 10])
        assert sum(histogram.pdf()) == pytest.approx(1.0)

    def test_empty_cdf_is_zero(self):
        histogram = BucketHistogram([1])
        assert histogram.cdf() == [0.0, 0.0]

    def test_labels_include_overflow(self):
        histogram = BucketHistogram([5, 200])
        assert histogram.labels == ["5", "200", "200+"]

    def test_merge(self):
        a = BucketHistogram([10])
        b = BucketHistogram([10])
        a.add(5)
        b.add(15)
        merged = a.merge(b)
        assert merged.counts == [1, 1]
        assert merged.total == 2

    def test_merge_requires_same_edges(self):
        with pytest.raises(ValueError):
            BucketHistogram([1]).merge(BucketHistogram([2]))

    @given(st.lists(st.floats(0, 300), max_size=100))
    def test_total_matches_count(self, data):
        histogram = BucketHistogram([5, 10, 20, 40])
        histogram.extend(data)
        assert histogram.total == len(data)
        assert sum(histogram.counts) == len(data)
