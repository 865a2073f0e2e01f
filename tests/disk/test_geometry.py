"""Tests for zoned geometry and LBA↔PBA mapping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.geometry import DiskGeometry, PhysicalAddress


@pytest.fixture
def geometry():
    # Small, multi-zone geometry: 8 surfaces, spt 100 → 60, 4 zones.
    return DiskGeometry(
        capacity_sectors=2_000_000,
        surfaces=8,
        spt_outer=100,
        spt_inner=60,
        zones=4,
    )


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DiskGeometry(0, 8, 100, 60)
        with pytest.raises(ValueError):
            DiskGeometry(1000, 0, 100, 60)
        with pytest.raises(ValueError):
            DiskGeometry(1000, 8, 60, 100)  # outer < inner
        with pytest.raises(ValueError):
            DiskGeometry(1000, 8, 100, 60, zones=0)

    def test_capacity_at_least_requested(self, geometry):
        assert geometry.total_sectors >= 2_000_000

    def test_zone_profile_descends_outward_in(self, geometry):
        spts = [zone.sectors_per_track for zone in geometry.zones]
        assert spts == sorted(spts, reverse=True)
        assert spts[0] == 100
        assert spts[-1] == 60

    def test_zones_are_contiguous(self, geometry):
        cursor_cyl = 0
        cursor_lba = 0
        for zone in geometry.zones:
            assert zone.first_cylinder == cursor_cyl
            assert zone.first_lba == cursor_lba
            cursor_cyl += zone.cylinder_count
            cursor_lba += zone.capacity_sectors(geometry.surfaces)
        assert cursor_cyl == geometry.cylinders
        assert cursor_lba == geometry.total_sectors

    def test_single_zone_geometry(self):
        geometry = DiskGeometry(100_000, 2, 50, 50, zones=1)
        assert len(geometry.zones) == 1
        assert geometry.mean_sectors_per_track == 50

    def test_platters_derived_from_surfaces(self, geometry):
        assert geometry.platters == 4


class TestAddressMapping:
    def test_lba_zero_is_origin(self, geometry):
        address = geometry.to_physical(0)
        assert address == PhysicalAddress(0, 0, 0)

    def test_roundtrip_spot_checks(self, geometry):
        for lba in (0, 1, 99, 100, 799, 800, 123456, 1_999_999):
            assert geometry.to_lba(geometry.to_physical(lba)) == lba

    def test_last_lba_maps_within_bounds(self, geometry):
        address = geometry.to_physical(geometry.total_sectors - 1)
        assert address.cylinder < geometry.cylinders
        assert address.surface < geometry.surfaces

    def test_out_of_range_lba_rejected(self, geometry):
        with pytest.raises(ValueError):
            geometry.to_physical(-1)
        with pytest.raises(ValueError):
            geometry.to_physical(geometry.total_sectors)

    def test_sequential_lbas_fill_track_then_surface(self, geometry):
        spt = geometry.zones[0].sectors_per_track
        a = geometry.to_physical(spt - 1)
        b = geometry.to_physical(spt)
        assert a.surface == 0 and a.sector == spt - 1
        assert b.surface == 1 and b.sector == 0

    def test_sequential_lbas_fill_cylinder_then_move(self, geometry):
        per_cyl = geometry.zones[0].sectors_per_cylinder(geometry.surfaces)
        a = geometry.to_physical(per_cyl - 1)
        b = geometry.to_physical(per_cyl)
        assert a.cylinder == 0
        assert b.cylinder == 1 and b.surface == 0 and b.sector == 0

    def test_to_lba_validates_surface_and_sector(self, geometry):
        with pytest.raises(ValueError):
            geometry.to_lba(PhysicalAddress(0, 99, 0))
        with pytest.raises(ValueError):
            geometry.to_lba(PhysicalAddress(0, 0, 10_000))

    def test_zone_of_cylinder_bounds(self, geometry):
        with pytest.raises(ValueError):
            geometry.zone_of_cylinder(-1)
        with pytest.raises(ValueError):
            geometry.zone_of_cylinder(geometry.cylinders)

    @given(st.integers(min_value=0, max_value=1_999_999))
    @settings(max_examples=200)
    def test_roundtrip_property(self, lba):
        geometry = DiskGeometry(2_000_000, 8, 100, 60, zones=4)
        assert geometry.to_lba(geometry.to_physical(lba)) == lba


class TestAngles:
    def test_angles_in_unit_interval(self, geometry):
        for lba in (0, 7, 12345, 999_999):
            angle = geometry.lba_angle(lba)
            assert 0.0 <= angle < 1.0

    def test_consecutive_sectors_adjacent_angles(self, geometry):
        spt = geometry.zones[0].sectors_per_track
        a0 = geometry.sector_angle(PhysicalAddress(0, 0, 0))
        a1 = geometry.sector_angle(PhysicalAddress(0, 0, 1))
        assert (a1 - a0) % 1.0 == pytest.approx(1.0 / spt)

    def test_track_skew_shifts_origin(self):
        geometry = DiskGeometry(
            100_000, 2, 50, 50, zones=1, track_skew=5, cylinder_skew=0
        )
        surface0 = geometry.sector_angle(PhysicalAddress(0, 0, 0))
        surface1 = geometry.sector_angle(PhysicalAddress(0, 1, 0))
        assert (surface1 - surface0) % 1.0 == pytest.approx(5 / 50)

    def test_cylinder_skew_shifts_origin(self):
        geometry = DiskGeometry(
            100_000, 2, 50, 50, zones=1, track_skew=0, cylinder_skew=7
        )
        cyl0 = geometry.sector_angle(PhysicalAddress(0, 0, 0))
        cyl1 = geometry.sector_angle(PhysicalAddress(1, 0, 0))
        assert (cyl1 - cyl0) % 1.0 == pytest.approx(7 / 50)


class TestTransferGeometry:
    def test_single_track_transfer(self, geometry):
        spt, tracks, cyls = geometry.transfer_geometry(0, 10)
        assert spt == 100
        assert tracks == 0
        assert cyls == 0

    def test_track_crossing(self, geometry):
        spt = geometry.zones[0].sectors_per_track
        _, tracks, cyls = geometry.transfer_geometry(spt - 5, 10)
        assert tracks == 1
        assert cyls == 0

    def test_cylinder_crossing(self, geometry):
        per_cyl = geometry.zones[0].sectors_per_cylinder(geometry.surfaces)
        _, tracks, cyls = geometry.transfer_geometry(per_cyl - 5, 10)
        assert cyls == 1
        assert tracks >= 1

    def test_transfer_beyond_capacity_rejected(self, geometry):
        with pytest.raises(ValueError):
            geometry.transfer_geometry(geometry.total_sectors - 5, 10)

    def test_zero_size_rejected(self, geometry):
        with pytest.raises(ValueError):
            geometry.transfer_geometry(0, 0)


class TestServicePlan:
    """``service_plan`` against the separate decodes it fuses.

    Most transfers end on their starting track, where the plan reuses
    the start decode; the rest decode their last sector again.  Both
    must equal ``decode_target`` + ``transfer_geometry`` +
    ``decode(last sector)``.
    """

    GEOMETRY = DiskGeometry(2_000_000, 8, 100, 60, zones=4)

    @given(
        lba=st.integers(min_value=0, max_value=1_999_999),
        # Short transfers mostly stay on their track; long ones cross
        # tracks, cylinders and now and then a zone boundary; ``edge``
        # ends a transfer on, just before or just past its track's
        # last sector.
        size=st.integers(min_value=1, max_value=16)
        | st.integers(min_value=1, max_value=260),
        edge=st.none() | st.integers(min_value=-1, max_value=1),
    )
    @settings(max_examples=400)
    def test_plan_equals_the_general_decode(self, lba, size, edge):
        geometry = self.GEOMETRY
        if edge is not None:
            _, _, sector, spt = geometry.decode(lba)
            size = max(1, spt - sector + edge)
        if lba + size > geometry.total_sectors:
            lba = geometry.total_sectors - size
        end_cylinder, _, end_sector, end_spt = geometry.decode(
            lba + size - 1
        )
        assert geometry.service_plan(lba, size) == (
            *geometry.decode_target(lba),
            *geometry.transfer_geometry(lba, size),
            end_cylinder,
            end_sector,
            end_spt,
        )
        # Read-ahead to the end of the last track stays on the disk.
        assert end_spt - end_sector - 1 <= (
            geometry.total_sectors - lba - size
        )

    def test_plan_validates_like_transfer_geometry(self, geometry):
        with pytest.raises(ValueError):
            geometry.service_plan(geometry.total_sectors - 5, 10)
        with pytest.raises(ValueError):
            geometry.service_plan(0, 0)
        with pytest.raises(ValueError):
            geometry.service_plan(geometry.total_sectors, 1)
