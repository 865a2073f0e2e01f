"""Tests for the array controller."""

import pytest

from repro.disk.drive import ConventionalDrive
from repro.disk.request import IORequest
from repro.disk.scheduler import FCFSScheduler, SPTFScheduler
from repro.experiments.configs import build_hcsd_system, build_md_system
from repro.experiments.runner import run_trace
from repro.raid.array import DiskArray
from repro.raid.layout import (
    ConcatLayout,
    JBODLayout,
    Raid0Layout,
    Raid5Layout,
)
from repro.sim.engine import Environment
from repro.workloads.commercial import COMMERCIAL_WORKLOADS


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

_SYSTEMS = {
    "md": lambda env: build_md_system(env, _FINANCIAL),
    "hcsd-fcfs": lambda env: build_hcsd_system(env, _FINANCIAL),
    "hcsd-sa4-fcfs": lambda env: build_hcsd_system(
        env, _FINANCIAL, actuators=4
    ),
    "hcsd-sptf": lambda env: build_hcsd_system(
        env, _FINANCIAL, scheduler=SPTFScheduler()
    ),
    "hcsd-sa4-sptf": lambda env: build_hcsd_system(
        env, _FINANCIAL, actuators=4, scheduler=SPTFScheduler()
    ),
}


@pytest.fixture(scope="module")
def financial_trace():
    return _FINANCIAL.generate(2000)


class TestIdentityMappingInPlace:
    """JBOD and concatenation serve the logical request itself.

    Financial's 24 source disks give the HC-SD concatenation non-zero
    bases.  A trivial layout subclass keeps the clone-per-slice path,
    which must produce the same requests, figures and event count.
    """

    def replay(self, build, trace, monkeypatch, subclass):
        env = Environment()
        system = build(env)
        if subclass:
            layout = system.layout
            if type(layout) is ConcatLayout:
                layout = _SubclassConcat(layout.source_capacities)
            else:
                layout = _SubclassJBOD(layout.disk_capacities)
            system = DiskArray(env, system.drives, layout, label=system.label)
        completed = []
        system.on_complete.append(completed.append)
        clone_slice = IORequest.clone_slice
        clones = []

        def counting_clone_slice(self, *args):
            clones.append(1)
            return clone_slice(self, *args)

        with monkeypatch.context() as patch:
            patch.setattr(IORequest, "clone_slice", counting_clone_slice)
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
    def test_matches_clone_path(self, name, financial_trace, monkeypatch):
        build = _SYSTEMS[name]
        rows, figures, events, clones = self.replay(
            build, financial_trace, monkeypatch, subclass=False
        )
        (
            clone_rows,
            clone_figures,
            clone_events,
            clone_clones,
        ) = self.replay(build, financial_trace, monkeypatch, subclass=True)
        assert len(rows) == len(financial_trace) == 2000
        assert rows == clone_rows
        assert figures == clone_figures
        assert events == clone_events
        # The runner's trace copy, plus one slice clone per request on
        # the clone path.
        assert clones == 2000
        assert clone_clones == 4000

    def test_concat_bases_are_exercised(self, financial_trace):
        env = Environment()
        system = _SYSTEMS["hcsd-fcfs"](env)
        assert type(system.layout) is ConcatLayout
        sources = {request.source_disk for request in financial_trace}
        assert any(system.layout.base_of(source) for source in sources)
