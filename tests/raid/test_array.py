"""Tests for the array controller."""

import pytest

from repro.disk.drive import ConventionalDrive
from repro.disk.request import IORequest, new_request
from repro.disk.scheduler import FCFSScheduler, SPTFScheduler
from repro.experiments import runner as runner_module
from repro.experiments.configs import (
    build_hcsd_system,
    build_md_system,
    build_raid0_system,
)
from repro.experiments.raid_study import DEFAULT_FOOTPRINT_FRACTION
from repro.experiments.runner import run_trace
from repro.raid import array as array_module
from repro.raid.array import DiskArray
from repro.raid.layout import (
    ConcatLayout,
    JBODLayout,
    Raid0Layout,
    Raid5Layout,
)
from repro.sim.engine import Environment
from repro.workloads.commercial import COMMERCIAL_WORKLOADS
from repro.workloads.synthetic import SyntheticWorkload


def build_array(tiny_spec, disks=2, layout_cls=Raid0Layout, **layout_kwargs):
    env = Environment()
    members = [
        ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
        for _ in range(disks)
    ]
    capacity = members[0].geometry.total_sectors
    if layout_cls is JBODLayout:
        layout = JBODLayout([capacity] * disks)
    else:
        layout = layout_cls(disks, capacity, **layout_kwargs)
    return env, DiskArray(env, members, layout)


class TestConstruction:
    def test_layout_disk_count_must_match(self, tiny_spec):
        env = Environment()
        drive = ConventionalDrive(env, tiny_spec)
        with pytest.raises(ValueError):
            DiskArray(env, [drive], Raid0Layout(2, 1000))

    def test_requires_drives(self, tiny_spec):
        env = Environment()
        with pytest.raises(ValueError):
            DiskArray(env, [], Raid0Layout(1, 1000))


class TestCompletion:
    def test_logical_request_completes_after_all_slices(self, tiny_spec):
        env, array = build_array(tiny_spec, disks=2, stripe_unit=16)
        # Spans the stripe boundary → two slices on two disks.
        request = IORequest(lba=8, size=16, is_read=True)
        event = array.submit(request)
        env.run()
        assert event.value is request
        assert request.completion_time is not None
        assert array.requests_completed == 1

    def test_on_complete_fires_for_logical_request(self, tiny_spec):
        env, array = build_array(tiny_spec, disks=2)
        seen = []
        array.on_complete.append(seen.append)
        request = IORequest(lba=0, size=8, is_read=True)
        array.submit(request)
        env.run()
        assert seen == [request]

    def test_response_reflects_critical_path(self, tiny_spec):
        env, array = build_array(tiny_spec, disks=2, stripe_unit=16)
        request = IORequest(lba=8, size=16, is_read=False)
        array.submit(request)
        env.run()
        # Both member drives serviced something.
        for drive in array.drives:
            assert drive.stats.requests_completed == 1
        assert request.response_time > 0

    def test_outstanding_tracks_inflight(self, tiny_spec):
        env, array = build_array(tiny_spec, disks=2)
        array.submit(IORequest(lba=0, size=8, is_read=True))
        assert array.outstanding == 1
        env.run()
        assert array.outstanding == 0


class TestRejectedExtent:
    def test_member_rejection_leaves_the_request_as_built(self):
        # Fig. 8's members are not a whole number of 128-sector stripe
        # units, so the top of the array's logical space maps past them.
        env = Environment()
        array = build_raid0_system(env, 2)
        lba = array.capacity_sectors() - 8
        request = IORequest(lba=lba, size=8, is_read=True)
        with pytest.raises(ValueError, match="exceeds drive capacity"):
            array.submit(request)
        assert request.lba == lba
        assert array.outstanding == 0

    @pytest.mark.parametrize(
        "size", [8, 136], ids=["one-slice", "straddles-into-partial-row"]
    )
    def test_clone_path_rejects_before_registering(self, size):
        # A layout subclass maps every request through slices; a slice
        # past its member's end must fail submit, not the run.
        env = Environment()
        system = build_raid0_system(env, 2)
        layout = system.layout
        array = DiskArray(
            env,
            system.drives,
            _SubclassRaid0(
                layout.disk_count, layout.disk_capacity, layout.stripe_unit
            ),
        )
        lba = array.capacity_sectors() - size
        request = IORequest(lba=lba, size=size, is_read=True)
        with pytest.raises(ValueError, match="exceeds drive capacity"):
            array.submit(request)
        assert request.lba == lba
        assert array.outstanding == 0
        env.run()
        assert all(drive.outstanding == 0 for drive in array.drives)


class TestJbodRouting:
    def test_source_disk_routing(self, tiny_spec):
        env, array = build_array(tiny_spec, disks=3, layout_cls=JBODLayout)
        request = IORequest(lba=100, size=8, is_read=True, source_disk=2)
        array.submit(request)
        env.run()
        assert array.drives[2].stats.requests_completed == 1
        assert array.drives[0].stats.requests_completed == 0


class TestRaid5Writes:
    def test_write_touches_data_and_parity_disks(self, tiny_spec):
        env = Environment()
        members = [
            ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
            for _ in range(4)
        ]
        layout = Raid5Layout(
            4, members[0].geometry.total_sectors, stripe_unit=16
        )
        array = DiskArray(env, members, layout)
        request = IORequest(lba=0, size=16, is_read=False)
        array.submit(request)
        env.run()
        # RMW: data disk sees read+write, parity disk sees read+write.
        touched = [
            drive.stats.requests_completed for drive in array.drives
        ]
        assert sorted(touched, reverse=True)[:2] == [2, 2]
        assert sum(touched) == 4

    def test_read_touches_single_disk(self, tiny_spec):
        env = Environment()
        members = [
            ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
            for _ in range(4)
        ]
        layout = Raid5Layout(
            4, members[0].geometry.total_sectors, stripe_unit=16
        )
        array = DiskArray(env, members, layout)
        array.submit(IORequest(lba=0, size=8, is_read=True))
        env.run()
        assert (
            sum(d.stats.requests_completed for d in array.drives) == 1
        )


class TestAggregates:
    def test_stats_by_drive_shape(self, tiny_spec):
        env, array = build_array(tiny_spec, disks=2)
        array.submit(IORequest(lba=0, size=8, is_read=False))
        env.run()
        stats = array.stats_by_drive()
        assert len(stats) == 2
        assert {"label", "requests", "seek_ms"} <= set(stats[0])

    def test_total_sectors_transferred(self, tiny_spec):
        env, array = build_array(tiny_spec, disks=2, stripe_unit=16)
        array.submit(IORequest(lba=8, size=16, is_read=False))
        env.run()
        assert array.total_sectors_transferred() == 16


class _SubclassJBOD(JBODLayout):
    """JBOD's mapping; the subclass takes DiskArray's ``_map`` path."""


class _SubclassConcat(ConcatLayout):
    """Concatenation's mapping; takes DiskArray's ``_map`` path."""


class _SubclassRaid0(Raid0Layout):
    """RAID-0's striping; takes DiskArray's ``_map`` path."""


#: Every field of a completed logical request but ``request_id``.
_REQUEST_FIELDS = (
    "lba",
    "source_disk",
    "size",
    "is_read",
    "arrival_time",
    "start_service",
    "completion_time",
    "seek_time",
    "rotational_latency",
    "transfer_time",
    "cache_hit",
    "arm_id",
    "media_error",
    "retries",
)

_FINANCIAL = COMMERCIAL_WORKLOADS["financial"]


def _financial(system):
    return _FINANCIAL.generate(2000)


def _synthetic(system):
    """The §7.3 stream at 1 ms arrivals over Fig. 8's footprint."""
    return SyntheticWorkload(
        capacity_sectors=system.capacity_sectors(),
        mean_interarrival_ms=1.0,
        footprint_fraction=DEFAULT_FOOTPRINT_FRACTION,
        seed=99,
    ).generate(2000)


def _raid0(disks, actuators):
    return (
        lambda env: build_raid0_system(env, disks, actuators=actuators),
        _synthetic,
    )


#: name -> (system builder, trace for a built system).
_SYSTEMS = {
    "md": (lambda env: build_md_system(env, _FINANCIAL), _financial),
    "hcsd-fcfs": (
        lambda env: build_hcsd_system(env, _FINANCIAL), _financial
    ),
    "hcsd-sa4-fcfs": (
        lambda env: build_hcsd_system(env, _FINANCIAL, actuators=4),
        _financial,
    ),
    "hcsd-sptf": (
        lambda env: build_hcsd_system(
            env, _FINANCIAL, scheduler=SPTFScheduler()
        ),
        _financial,
    ),
    "hcsd-sa4-sptf": (
        lambda env: build_hcsd_system(
            env, _FINANCIAL, actuators=4, scheduler=SPTFScheduler()
        ),
        _financial,
    ),
    **{
        f"raid0-{disks}x-sa{actuators}": _raid0(disks, actuators)
        for disks in (1, 2, 16)
        for actuators in (1, 2)
    },
}


@pytest.fixture(scope="module")
def financial_trace():
    return _FINANCIAL.generate(2000)


class TestIdentityMappingInPlace:
    """A request on one drive extent is served as the logical request.

    That is every JBOD and concatenated request, and every RAID-0
    request inside one stripe unit.  Financial's 24 source disks give
    the HC-SD concatenation non-zero bases; Fig. 8's RAID-0 arrays
    replay the §7.3 stream, whose requests sometimes straddle a stripe
    unit.  A trivial layout subclass keeps the request-per-slice path,
    which must produce the same requests, figures and event count.
    """

    def replay(self, build, trace, monkeypatch, subclass):
        env = Environment()
        system = build(env)
        if subclass:
            layout = system.layout
            if type(layout) is ConcatLayout:
                layout = _SubclassConcat(layout.source_capacities)
            elif type(layout) is Raid0Layout:
                layout = _SubclassRaid0(
                    layout.disk_count,
                    layout.disk_capacity,
                    layout.stripe_unit,
                )
            else:
                layout = _SubclassJBOD(layout.disk_capacities)
            system = DiskArray(env, system.drives, layout, label=system.label)
        completed = []
        system.on_complete.append(completed.append)
        clones = []

        def counting_new_request(*args):
            clones.append(1)
            return new_request(*args)

        with monkeypatch.context() as patch:
            for module in (array_module, runner_module):
                patch.setattr(module, "new_request", counting_new_request)
            run = run_trace(env, system, trace)
        rows = [
            tuple(getattr(request, name) for name in _REQUEST_FIELDS)
            for request in completed
        ]
        collector = run.collector
        figures = (
            collector.summary(),
            collector.response_times,
            collector.rotational_latencies,
            collector.seek_times,
            collector.response_cdf(),
            collector.rotational_pdf(),
            collector.reads,
            collector.nonzero_seeks,
        )
        return rows, figures, env.total_events, len(clones)

    @pytest.mark.parametrize("name", sorted(_SYSTEMS))
    def test_matches_clone_path(self, name, monkeypatch):
        build, make_trace = _SYSTEMS[name]
        system = build(Environment())
        trace = make_trace(system)
        slices = [
            len(system.layout.map_request(
                request.lba, request.size, request.is_read,
                request.source_disk,
            ))
            for request in trace
        ]
        rows, figures, events, clones = self.replay(
            build, trace, monkeypatch, subclass=False
        )
        (
            clone_rows,
            clone_figures,
            clone_events,
            clone_clones,
        ) = self.replay(build, trace, monkeypatch, subclass=True)
        assert len(rows) == len(trace) == 2000
        assert rows == clone_rows
        assert figures == clone_figures
        assert events == clone_events
        # The runner's copy of each request, plus one request per slice
        # of each straddling request in place, and one per slice of
        # every request on the slice path.
        assert clones == 2000 + sum(n for n in slices if n > 1)
        assert clone_clones == 2000 + sum(slices)

    def test_concat_bases_are_exercised(self, financial_trace):
        env = Environment()
        system = _SYSTEMS["hcsd-fcfs"][0](env)
        assert type(system.layout) is ConcatLayout
        sources = {request.source_disk for request in financial_trace}
        assert any(system.layout.base_of(source) for source in sources)

    def test_raid0_stream_straddles_some_units(self):
        build, make_trace = _SYSTEMS["raid0-16x-sa2"]
        system = build(Environment())
        slices = [
            len(system.layout.map_request(
                request.lba, request.size, request.is_read
            ))
            for request in make_trace(system)
        ]
        straddling = sum(1 for n in slices if n > 1)
        assert 0 < straddling < len(slices) // 4
