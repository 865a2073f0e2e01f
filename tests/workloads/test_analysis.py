"""Tests for trace profiling/analysis."""

import pytest

from repro.disk.request import IORequest
from repro.workloads.analysis import profile_trace
from repro.workloads.commercial import TPCH, WEBSEARCH
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.trace import Trace


class TestProfileBasics:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            profile_trace(Trace([]))

    def test_counts_and_duration(self):
        trace = Trace(
            [
                IORequest(lba=0, size=8, is_read=True, arrival_time=0.0),
                IORequest(lba=8, size=8, is_read=False, arrival_time=4.0),
            ]
        )
        profile = profile_trace(trace)
        assert profile.requests == 2
        assert profile.duration_ms == pytest.approx(4.0)
        assert profile.read_fraction == pytest.approx(0.5)

    def test_poisson_cv_near_one(self):
        workload = SyntheticWorkload(
            capacity_sectors=1_000_000, mean_interarrival_ms=5.0, seed=3
        )
        profile = profile_trace(workload.generate(8000))
        assert profile.interarrival_cv == pytest.approx(1.0, abs=0.1)

    def test_p90_size(self):
        requests = [
            IORequest(lba=i * 10, size=8 if i < 9 else 256,
                      is_read=True, arrival_time=float(i))
            for i in range(10)
        ]
        profile = profile_trace(Trace(requests))
        assert profile.p90_size_sectors >= 8


class TestLocalityMetrics:
    def test_footprint_counts_unique_regions_per_disk(self):
        requests = [
            IORequest(lba=0, size=8, is_read=True, arrival_time=0.0,
                      source_disk=0),
            IORequest(lba=4, size=8, is_read=True, arrival_time=1.0,
                      source_disk=0),  # same 1 MB region
            IORequest(lba=5_000_000, size=8, is_read=True,
                      arrival_time=2.0, source_disk=1),
        ]
        profile = profile_trace(Trace(requests))
        assert profile.footprint_mb_by_disk == {0: 1, 1: 1}

    def test_commercial_models_are_hot_concentrated(self):
        profile = profile_trace(WEBSEARCH.generate(4000))
        # The calibrated hot regions concentrate far above uniform.
        assert profile.hot10_fraction > 0.15

    def test_tpch_more_sequential_than_websearch(self):
        tpch = profile_trace(TPCH.generate(3000))
        websearch = profile_trace(WEBSEARCH.generate(3000))
        assert tpch.sequential_fraction > websearch.sequential_fraction

    def test_describe_renders(self):
        profile = profile_trace(WEBSEARCH.generate(500))
        text = profile.describe()
        assert "websearch" in text
        assert "inter-arrival" in text
        assert "footprint" in text
