"""Tests for the DiskSim-style synthetic generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.distributions import (
    BernoulliStream,
    ExponentialStream,
    UniformStream,
)
from repro.workloads.synthetic import SyntheticWorkload

CAPACITY = 1_000_000


def make(**kwargs):
    defaults = dict(
        capacity_sectors=CAPACITY, mean_interarrival_ms=4.0, seed=1
    )
    defaults.update(kwargs)
    return SyntheticWorkload(**defaults)


class TestValidation:
    def test_capacity_must_exceed_request(self):
        with pytest.raises(ValueError):
            SyntheticWorkload(8, 4.0, request_size_sectors=8)

    def test_size_positive(self):
        with pytest.raises(ValueError):
            make(request_size_sectors=0)

    def test_footprint_fraction_bounds(self):
        with pytest.raises(ValueError):
            make(footprint_fraction=0.0)
        with pytest.raises(ValueError):
            make(footprint_fraction=1.5)

    def test_count_positive(self):
        with pytest.raises(ValueError):
            make().generate(0)


class TestStatisticalProperties:
    def test_deterministic_from_seed(self):
        a = make(seed=7).generate(500)
        b = make(seed=7).generate(500)
        assert [(r.lba, r.arrival_time) for r in a] == [
            (r.lba, r.arrival_time) for r in b
        ]

    def test_different_seeds_differ(self):
        a = make(seed=1).generate(100)
        b = make(seed=2).generate(100)
        assert [r.lba for r in a] != [r.lba for r in b]

    def test_read_fraction_near_paper_value(self):
        trace = make().generate(10_000)
        assert trace.read_fraction == pytest.approx(0.6, abs=0.03)

    def test_sequential_fraction_near_paper_value(self):
        trace = make().generate(10_000)
        assert trace.sequential_fraction() == pytest.approx(0.2, abs=0.03)

    def test_interarrival_mean(self):
        trace = make().generate(10_000)
        assert trace.mean_interarrival_ms == pytest.approx(4.0, rel=0.05)

    def test_arrivals_monotone(self):
        trace = make().generate(1000)
        times = [r.arrival_time for r in trace]
        assert times == sorted(times)


class TestFootprint:
    def test_all_requests_within_capacity(self):
        trace = make().generate(5000)
        assert all(r.end_lba <= CAPACITY for r in trace)

    def test_footprint_fraction_restricts_range(self):
        trace = make(footprint_fraction=0.1).generate(5000)
        limit = CAPACITY * 0.1
        assert all(r.lba <= limit for r in trace)

    def test_fixed_request_size(self):
        trace = make(request_size_sectors=32).generate(200)
        assert all(r.size == 32 for r in trace)

    def test_default_name_describes_parameters(self):
        trace = make().generate(10)
        assert "ia4" in trace.name

    def test_custom_name(self):
        trace = make().generate(10, name="custom")
        assert trace.name == "custom"


class _ReferenceGenerator:
    """The request-at-a-time loop, written against the public streams."""

    def __init__(self, workload):
        base = workload.seed if workload.seed is not None else 0
        self.workload = workload
        self.interarrival = ExponentialStream(
            workload.mean_interarrival_ms, seed=base
        )
        self.reads = BernoulliStream(workload.read_fraction, seed=base + 1)
        self.sequential = BernoulliStream(
            workload.sequential_fraction, seed=base + 2
        )
        self.location = UniformStream(
            0,
            workload.footprint_sectors - workload.request_size_sectors - 1,
            seed=base + 3,
        )

    def generate(self, count):
        size = self.workload.request_size_sectors
        limit = self.workload.footprint_sectors - size
        rows = []
        clock = 0.0
        previous_end = None
        for _ in range(count):
            clock += self.interarrival.sample()
            if (
                previous_end is not None
                and previous_end <= limit
                and self.sequential.sample()
            ):
                lba = previous_end
            else:
                lba = self.location.sample_int()
            rows.append((lba, size, self.reads.sample(), clock, 0, False))
            previous_end = lba + size
        return rows


def _rows(trace):
    return [
        (r.lba, r.size, r.is_read, r.arrival_time, r.source_disk,
         r.background)
        for r in trace
    ]


class TestStreamExact:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        read_fraction=st.floats(0.0, 1.0),
        sequential_fraction=st.floats(0.0, 1.0),
        footprint_fraction=st.floats(0.001, 1.0),
        size=st.integers(1, 256),
        counts=st.tuples(st.integers(1, 200), st.integers(1, 200)),
    )
    def test_generate_matches_the_public_stream_loop(
        self, seed, read_fraction, sequential_fraction,
        footprint_fraction, size, counts,
    ):
        workload = make(
            seed=seed,
            read_fraction=read_fraction,
            sequential_fraction=sequential_fraction,
            footprint_fraction=footprint_fraction,
            request_size_sectors=size,
        )
        reference = _ReferenceGenerator(workload)
        # The second call continues every stream where the first left it.
        for count in counts:
            trace = workload.generate(count)
            assert _rows(trace) == reference.generate(count)
            first = trace.requests[0].request_id
            assert [r.request_id for r in trace] == list(
                range(first, first + count)
            )
            assert all(
                r.start_service is None and r.completion_time is None
                for r in trace
            )
