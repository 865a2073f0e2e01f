"""Tests for the array address-translation layouts."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.raid.layout import (
    ConcatLayout,
    JBODLayout,
    Raid0Layout,
    Raid5Layout,
    Slice,
)


class TestSlice:
    def test_validation(self):
        with pytest.raises(ValueError):
            Slice(-1, 0, 8, True)
        with pytest.raises(ValueError):
            Slice(0, -1, 8, True)
        with pytest.raises(ValueError):
            Slice(0, 0, 0, True)


class TestJBOD:
    def test_routes_by_source_disk(self):
        layout = JBODLayout([1000, 2000, 3000])
        slices = layout.map_request(100, 8, True, source_disk=2)
        assert slices == [Slice(2, 100, 8, True)]

    def test_capacity_is_sum(self):
        assert JBODLayout([10, 20]).capacity_sectors() == 30

    def test_bad_source_disk(self):
        layout = JBODLayout([1000])
        with pytest.raises(ValueError):
            layout.map_request(0, 8, True, source_disk=5)

    def test_per_disk_bounds_enforced(self):
        layout = JBODLayout([100, 1000])
        with pytest.raises(ValueError):
            layout.map_request(96, 8, True, source_disk=0)

    def test_requires_disks(self):
        with pytest.raises(ValueError):
            JBODLayout([])


class TestConcat:
    def test_bases_are_prefix_sums(self):
        layout = ConcatLayout([100, 200, 300])
        assert layout.base_of(0) == 0
        assert layout.base_of(1) == 100
        assert layout.base_of(2) == 300

    def test_maps_onto_single_drive(self):
        layout = ConcatLayout([100, 200])
        slices = layout.map_request(50, 8, False, source_disk=1)
        assert slices == [Slice(0, 150, 8, False)]

    def test_source_bounds_enforced(self):
        layout = ConcatLayout([100, 200])
        with pytest.raises(ValueError):
            layout.map_request(95, 8, True, source_disk=0)

    def test_distinct_sources_never_collide(self):
        layout = ConcatLayout([100, 100, 100])
        spans = []
        for disk in range(3):
            piece = layout.map_request(0, 100, True, source_disk=disk)[0]
            spans.append((piece.lba, piece.lba + piece.size))
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ConcatLayout([100, 0])


class TestRaid0:
    def test_small_request_single_slice(self):
        layout = Raid0Layout(4, 10_000, stripe_unit=128)
        slices = layout.map_request(0, 8, True)
        assert slices == [Slice(0, 0, 8, True)]

    def test_round_robin_across_disks(self):
        layout = Raid0Layout(2, 10_000, stripe_unit=10)
        assert layout.map_request(0, 10, True)[0].disk == 0
        assert layout.map_request(10, 10, True)[0].disk == 1
        assert layout.map_request(20, 10, True)[0].disk == 0
        # Second row on disk 0 starts at physical lba 10.
        assert layout.map_request(20, 10, True)[0].lba == 10

    def test_spanning_request_splits(self):
        layout = Raid0Layout(2, 10_000, stripe_unit=10)
        slices = layout.map_request(5, 10, True)
        assert len(slices) == 2
        assert slices[0] == Slice(0, 5, 5, True)
        assert slices[1] == Slice(1, 0, 5, True)

    def test_slices_cover_request_exactly(self):
        layout = Raid0Layout(3, 10_000, stripe_unit=16)
        slices = layout.map_request(7, 100, True)
        assert sum(piece.size for piece in slices) == 100

    def test_capacity_bounds(self):
        layout = Raid0Layout(2, 100, stripe_unit=10)
        with pytest.raises(ValueError):
            layout.map_request(195, 10, True)

    @given(
        lba=st.integers(0, 5000),
        size=st.integers(1, 300),
        disks=st.integers(1, 8),
        unit=st.integers(1, 64),
    )
    @settings(max_examples=200)
    def test_mapping_properties(self, lba, size, disks, unit):
        layout = Raid0Layout(disks, 10_000, stripe_unit=unit)
        if lba + size > layout.capacity_sectors():
            return
        slices = layout.map_request(lba, size, True)
        assert sum(piece.size for piece in slices) == size
        for piece in slices:
            assert 0 <= piece.disk < disks
            assert piece.lba + piece.size <= 10_000

    def test_adjacent_units_coalesced_on_single_disk(self):
        layout = Raid0Layout(1, 10_000, stripe_unit=10)
        slices = layout.map_request(0, 40, True)
        assert len(slices) == 1
        assert slices[0].size == 40


class TestRaid5:
    def test_needs_three_disks(self):
        with pytest.raises(ValueError):
            Raid5Layout(2, 1000)

    def test_capacity_excludes_parity(self):
        layout = Raid5Layout(5, 1000, stripe_unit=10)
        assert layout.capacity_sectors() == 4 * 1000

    def test_read_is_single_slice(self):
        layout = Raid5Layout(4, 1000, stripe_unit=10)
        slices = layout.map_request(0, 10, True)
        assert len(slices) == 1
        assert slices[0].is_read

    def test_write_expands_to_read_modify_write(self):
        layout = Raid5Layout(4, 1000, stripe_unit=10)
        slices = layout.map_request(0, 10, False)
        reads = [s for s in slices if s.phase == 0]
        writes = [s for s in slices if s.phase == 1]
        assert len(reads) == 2 and all(s.is_read for s in reads)
        assert len(writes) == 2 and not any(s.is_read for s in writes)
        # Data and parity land on different disks.
        assert len({s.disk for s in slices}) == 2

    def test_parity_rotates_across_rows(self):
        layout = Raid5Layout(4, 1000, stripe_unit=10)
        parity_disks = set()
        data_per_row = layout.data_disks * 10
        for row in range(4):
            slices = layout.map_request(row * data_per_row, 10, False)
            parity_disks.add(slices[1].disk)
        assert len(parity_disks) == 4  # all member disks take parity

    def test_data_never_lands_on_parity_disk(self):
        layout = Raid5Layout(5, 1000, stripe_unit=10)
        for unit in range(40):
            disk, row, parity = layout._locate(unit)
            assert disk != parity

    @given(lba=st.integers(0, 3000), size=st.integers(1, 100))
    @settings(max_examples=100)
    def test_read_covers_size(self, lba, size):
        layout = Raid5Layout(4, 2000, stripe_unit=16)
        if lba + size > layout.capacity_sectors():
            return
        slices = layout.map_request(lba, size, True)
        assert sum(piece.size for piece in slices) == size


class TestInterleavedConcat:
    def _layout(self, sources=3, capacity=1000, unit=10):
        from repro.raid.layout import InterleavedConcatLayout

        return InterleavedConcatLayout([capacity] * sources, unit=unit)

    def test_requires_equal_capacities(self):
        from repro.raid.layout import InterleavedConcatLayout

        with pytest.raises(ValueError, match="equal"):
            InterleavedConcatLayout([100, 200])

    def test_validation(self):
        from repro.raid.layout import InterleavedConcatLayout

        with pytest.raises(ValueError):
            InterleavedConcatLayout([])
        with pytest.raises(ValueError):
            InterleavedConcatLayout([100], unit=0)

    def test_capacity(self):
        assert self._layout().capacity_sectors() == 3000

    def test_first_units_interleave_by_source(self):
        layout = self._layout()
        for source in range(3):
            piece = layout.map_request(0, 10, True, source_disk=source)[0]
            assert piece.lba == source * 10

    def test_second_unit_skips_other_sources(self):
        layout = self._layout()
        piece = layout.map_request(10, 10, True, source_disk=0)[0]
        assert piece.lba == 30  # unit 1 of source 0 after 3-way round

    def test_spanning_request_splits_per_unit(self):
        layout = self._layout()
        slices = layout.map_request(5, 10, True, source_disk=1)
        assert len(slices) == 2
        assert sum(piece.size for piece in slices) == 10

    def test_sources_never_collide(self):
        layout = self._layout(sources=2, capacity=100, unit=10)
        seen = set()
        for source in range(2):
            for start in range(0, 100, 10):
                piece = layout.map_request(
                    start, 10, True, source_disk=source
                )[0]
                span = (piece.lba, piece.lba + piece.size)
                for other in seen:
                    assert span[1] <= other[0] or other[1] <= span[0]
                seen.add(span)

    def test_bounds(self):
        layout = self._layout()
        with pytest.raises(ValueError):
            layout.map_request(995, 10, True, source_disk=0)
        with pytest.raises(ValueError):
            layout.map_request(0, 10, True, source_disk=5)


@st.composite
def _located_extents(draw):
    """A JBOD, concat or RAID-0 layout and an extent near its edges.

    Extents straddle stripe units, touch the last sector, run past the
    capacity of their source, name a bad source disk, or are empty or
    negative.
    """
    kind = draw(st.sampled_from(["jbod", "concat", "raid0"]))
    members = draw(st.integers(1, 16))
    if kind == "raid0":
        unit = draw(st.integers(1, 256))
        layout = Raid0Layout(
            members, draw(st.integers(1, 4096)), stripe_unit=unit
        )
        source = draw(st.integers(-1, 2))
        space = layout.capacity_sectors()
    else:
        unit = draw(st.integers(1, 256))
        capacities = draw(
            st.lists(st.integers(1, 4096), min_size=members,
                     max_size=members)
        )
        layout = (JBODLayout if kind == "jbod" else ConcatLayout)(
            capacities
        )
        source = draw(st.integers(-1, members))
        space = capacities[source] if 0 <= source < members else 4096
    edge = draw(st.sampled_from(["unit", "end", "anywhere"]))
    lba = draw(st.integers(-2, space + 2))
    if edge == "unit":
        # End one sector short of, at or past a stripe-unit boundary.
        boundary = (max(lba, 0) // unit + draw(st.integers(0, 2))) * unit
        size = boundary - lba + draw(st.integers(-1, 1))
    elif edge == "end":
        # End one sector short of, at or past the last sector.
        lba = space - draw(st.integers(0, 300))
        size = space - lba + draw(st.integers(-1, 1))
    else:
        size = draw(st.integers(0, 300))
    return layout, lba, size, source, draw(st.booleans())


class TestLocate:
    @given(case=_located_extents())
    @settings(max_examples=600, deadline=None)
    def test_locate_agrees_with_map_request(self, case):
        layout, lba, size, source, is_read = case
        try:
            slices = layout.map_request(lba, size, is_read, source)
        except ValueError:
            slices = []
        located = layout.locate(lba, size, source)
        if len(slices) == 1:
            assert located == (slices[0].disk, slices[0].lba)
        else:
            assert located is None

    def test_base_layout_never_locates(self):
        # A RAID-5 read maps to one slice, but the layout keeps the
        # base class's locate.
        layout = Raid5Layout(4, 10_000, stripe_unit=16)
        assert len(layout.map_request(0, 8, True)) == 1
        assert layout.locate(0, 8) is None

    def test_concat_rejects_negative_offsets(self):
        # Offset -50 of source 1 would land inside source 0's band.
        with pytest.raises(ValueError):
            ConcatLayout([100, 200]).map_request(-50, 8, True, 1)
