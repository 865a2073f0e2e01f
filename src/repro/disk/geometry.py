"""Zoned platter geometry and logical-to-physical address mapping.

Modern drives use *zoned bit recording*: cylinders are grouped into
zones, and outer zones pack more sectors per track than inner ones.
This module builds a zone table from a handful of published parameters
(capacity, platter count, outer/inner sectors-per-track) and provides
the LBA↔(cylinder, surface, sector) mapping plus the angular position
of any sector — the quantity the rotational-latency model needs.

Angular positions are expressed as fractions of a revolution in
``[0, 1)``.  Track and cylinder skew shift where logical sector 0 sits
on successive tracks so that sequential transfers that cross a track or
cylinder boundary don't miss a full revolution.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["DiskGeometry", "PhysicalAddress", "Zone"]


@dataclass(frozen=True, slots=True)
class PhysicalAddress:
    """A decoded sector location."""

    cylinder: int
    surface: int
    sector: int


@dataclass(frozen=True, slots=True)
class Zone:
    """A run of cylinders sharing one sectors-per-track value."""

    first_cylinder: int
    cylinder_count: int
    sectors_per_track: int
    first_lba: int

    @property
    def last_cylinder(self) -> int:
        return self.first_cylinder + self.cylinder_count - 1

    def sectors_per_cylinder(self, surfaces: int) -> int:
        return self.sectors_per_track * surfaces

    def capacity_sectors(self, surfaces: int) -> int:
        return self.cylinder_count * self.sectors_per_cylinder(surfaces)


class DiskGeometry:
    """Derived zoned geometry for a drive.

    The constructor sizes the cylinder count so that total capacity is
    at least ``capacity_sectors`` given the zone profile, mirroring how
    vendors bin drives to an advertised capacity.

    Parameters
    ----------
    capacity_sectors:
        Advertised drive capacity, in 512-byte sectors.
    surfaces:
        Number of recording surfaces (2 × platters normally).
    spt_outer / spt_inner:
        Sectors per track in the outermost / innermost zone.
    zones:
        Number of zones; sectors-per-track interpolates linearly from
        outer to inner across them.
    track_skew / cylinder_skew:
        Skew, in sectors, applied per surface switch and per cylinder
        switch respectively.
    """

    def __init__(
        self,
        capacity_sectors: int,
        surfaces: int,
        spt_outer: int,
        spt_inner: int,
        zones: int = 16,
        track_skew: int = 32,
        cylinder_skew: int = 48,
    ):
        if capacity_sectors <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_sectors}")
        if surfaces <= 0:
            raise ValueError(f"surfaces must be positive, got {surfaces}")
        if spt_inner <= 0 or spt_outer < spt_inner:
            raise ValueError(
                f"need spt_outer >= spt_inner > 0, got {spt_outer}/{spt_inner}"
            )
        if zones <= 0:
            raise ValueError(f"zones must be positive, got {zones}")

        self.surfaces = surfaces
        self.track_skew = track_skew
        self.cylinder_skew = cylinder_skew
        self._zones = self._build_zones(
            capacity_sectors, surfaces, spt_outer, spt_inner, zones
        )
        last = self._zones[-1]
        self.cylinders = last.first_cylinder + last.cylinder_count
        self.total_sectors = last.first_lba + last.capacity_sectors(surfaces)
        # Address decoding is the simulator's hottest non-engine path;
        # precompute the zone boundary tables once so per-lookup work is
        # a bisect instead of a linear scan with derived capacities.
        self._zone_first_lbas = [zone.first_lba for zone in self._zones]
        self._zone_first_cyls = [zone.first_cylinder for zone in self._zones]
        self._zone_spts = [zone.sectors_per_track for zone in self._zones]
        self._zone_sectors_per_cyl = [
            zone.sectors_per_track * surfaces for zone in self._zones
        ]

    @staticmethod
    def _build_zones(
        capacity_sectors: int,
        surfaces: int,
        spt_outer: int,
        spt_inner: int,
        zone_count: int,
    ) -> List[Zone]:
        # Sectors-per-track profile, outermost zone first.
        if zone_count == 1:
            spts = [spt_outer]
        else:
            step = (spt_outer - spt_inner) / (zone_count - 1)
            spts = [round(spt_outer - i * step) for i in range(zone_count)]
        mean_spt = sum(spts) / len(spts)
        # Cylinders needed so the summed zone capacity covers the target.
        total_cyls = max(
            zone_count,
            -(-capacity_sectors // int(mean_spt * surfaces)),  # ceil div
        )
        base, extra = divmod(total_cyls, zone_count)
        zones: List[Zone] = []
        first_cyl = 0
        first_lba = 0
        for index, spt in enumerate(spts):
            count = base + (1 if index < extra else 0)
            zone = Zone(first_cyl, count, spt, first_lba)
            zones.append(zone)
            first_cyl += count
            first_lba += zone.capacity_sectors(surfaces)
        return zones

    @property
    def zones(self) -> Tuple[Zone, ...]:
        return tuple(self._zones)

    @property
    def platters(self) -> int:
        return (self.surfaces + 1) // 2

    @property
    def mean_sectors_per_track(self) -> float:
        tracks = sum(z.cylinder_count for z in self._zones)
        sectors = sum(
            z.cylinder_count * z.sectors_per_track for z in self._zones
        )
        return sectors / tracks

    def zone_of_lba(self, lba: int) -> Zone:
        self._check_lba(lba)
        return self._zones[bisect_right(self._zone_first_lbas, lba) - 1]

    def zone_of_cylinder(self, cylinder: int) -> Zone:
        if not 0 <= cylinder < self.cylinders:
            raise ValueError(
                f"cylinder {cylinder} out of range [0, {self.cylinders})"
            )
        return self._zones[
            bisect_right(self._zone_first_cyls, cylinder) - 1
        ]

    def _check_lba(self, lba: int) -> None:
        if not 0 <= lba < self.total_sectors:
            raise ValueError(
                f"lba {lba} out of range [0, {self.total_sectors})"
            )

    def to_physical(self, lba: int) -> PhysicalAddress:
        """Decode an LBA into (cylinder, surface, sector)."""
        cylinder, surface, sector, _ = self.decode(lba)
        return PhysicalAddress(cylinder, surface, sector)

    def decode(self, lba: int) -> Tuple[int, int, int, int]:
        """Decode an LBA into ``(cylinder, surface, sector, spt)``.

        The allocation-free form of :meth:`to_physical`, with the
        zone's sectors-per-track riding along — the service models need
        all four per request, and a tuple unpack is all it costs.
        """
        if not 0 <= lba < self.total_sectors:
            self._check_lba(lba)
        index = bisect_right(self._zone_first_lbas, lba) - 1
        spt = self._zone_spts[index]
        cylinder, rem = divmod(
            lba - self._zone_first_lbas[index],
            self._zone_sectors_per_cyl[index],
        )
        surface, sector = divmod(rem, spt)
        return self._zone_first_cyls[index] + cylinder, surface, sector, spt

    def decode_target(self, lba: int) -> Tuple[int, float]:
        """``(cylinder, sector_angle)`` for an LBA in one lookup.

        Exactly ``to_physical`` + ``sector_angle`` without the address
        object or the second zone bisect; the pair is what the seek and
        rotation models consume per request.
        """
        if not 0 <= lba < self.total_sectors:
            self._check_lba(lba)
        index = bisect_right(self._zone_first_lbas, lba) - 1
        spt = self._zone_spts[index]
        cylinder, rem = divmod(
            lba - self._zone_first_lbas[index],
            self._zone_sectors_per_cyl[index],
        )
        surface, sector = divmod(rem, spt)
        cylinder += self._zone_first_cyls[index]
        skew = surface * self.track_skew + cylinder * self.cylinder_skew
        return cylinder, ((sector + skew) % spt) / spt

    def cylinder_of_lba(self, lba: int) -> int:
        """Cylinder holding an LBA (no full decode, no allocation)."""
        if not 0 <= lba < self.total_sectors:
            self._check_lba(lba)
        index = bisect_right(self._zone_first_lbas, lba) - 1
        return self._zone_first_cyls[index] + (
            (lba - self._zone_first_lbas[index])
            // self._zone_sectors_per_cyl[index]
        )

    def to_lba(self, address: PhysicalAddress) -> int:
        """Inverse of :meth:`to_physical`."""
        zone = self.zone_of_cylinder(address.cylinder)
        if not 0 <= address.surface < self.surfaces:
            raise ValueError(f"surface {address.surface} out of range")
        if not 0 <= address.sector < zone.sectors_per_track:
            raise ValueError(
                f"sector {address.sector} out of range for zone with "
                f"{zone.sectors_per_track} sectors/track"
            )
        return (
            zone.first_lba
            + (address.cylinder - zone.first_cylinder)
            * zone.sectors_per_cylinder(self.surfaces)
            + address.surface * zone.sectors_per_track
            + address.sector
        )

    def sector_angle(self, address: PhysicalAddress) -> float:
        """Angular position of a sector, as a fraction of a revolution.

        Applies track and cylinder skew: logical sector 0 of successive
        tracks is offset so sequential access across boundaries only
        waits the switch time, not a full rotation.
        """
        zone = self.zone_of_cylinder(address.cylinder)
        spt = zone.sectors_per_track
        skew = (
            address.surface * self.track_skew
            + address.cylinder * self.cylinder_skew
        )
        return ((address.sector + skew) % spt) / spt

    def lba_angle(self, lba: int) -> float:
        """Angular position of an LBA (convenience wrapper)."""
        return self.sector_angle(self.to_physical(lba))

    def transfer_geometry(self, lba: int, size: int) -> Tuple[int, int, int]:
        """Layout facts for a transfer: (spt at start, track crossings,
        cylinder crossings).

        Used by the drive model to price multi-track transfers.
        """
        self._check_lba(lba)
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if lba + size > self.total_sectors:
            raise ValueError(
                f"transfer [{lba}, {lba + size}) exceeds capacity "
                f"{self.total_sectors}"
            )
        start_cyl, start_surface, _, start_spt = self.decode(lba)
        end_cyl, end_surface, _, _ = self.decode(lba + size - 1)
        start_track = start_cyl * self.surfaces + start_surface
        end_track = end_cyl * self.surfaces + end_surface
        track_crossings = end_track - start_track
        cylinder_crossings = end_cyl - start_cyl
        return start_spt, track_crossings, cylinder_crossings

    def service_plan(
        self, lba: int, size: int
    ) -> Tuple[int, float, int, int, int, int, int, int]:
        """Every layout fact one media service needs, in a single pass.

        Returns ``(cylinder, sector_angle, start_spt, track_crossings,
        cylinder_crossings, end_cylinder, end_sector, end_spt)``.  The
        first pair equals :meth:`decode_target`, the middle triple
        equals :meth:`transfer_geometry`, and the final triple
        describes ``decode(lba + size - 1)`` — the arm's parking
        cylinder and the read-ahead room left on the last track.  The
        drive service paths previously derived these from four separate
        lookups over the same span; one call shares the zone bisects.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if not 0 <= lba < self.total_sectors:
            self._check_lba(lba)
        end = lba + size - 1
        if end >= self.total_sectors:
            raise ValueError(
                f"transfer [{lba}, {lba + size}) exceeds capacity "
                f"{self.total_sectors}"
            )
        first_lbas = self._zone_first_lbas
        index = bisect_right(first_lbas, lba) - 1
        spt = self._zone_spts[index]
        cylinder, rem = divmod(
            lba - first_lbas[index], self._zone_sectors_per_cyl[index]
        )
        surface, sector = divmod(rem, spt)
        cylinder += self._zone_first_cyls[index]
        skew = surface * self.track_skew + cylinder * self.cylinder_skew
        sector_angle = ((sector + skew) % spt) / spt
        if sector + size <= spt:
            # The transfer ends on its starting track: the end decode
            # is the start decode moved along the track.
            return (
                cylinder,
                sector_angle,
                spt,
                0,
                0,
                cylinder,
                sector + size - 1,
                spt,
            )
        # Transfers almost never leave their starting zone; only bisect
        # again when the end sector provably lives past its boundary.
        next_index = index + 1
        if next_index < len(first_lbas) and end >= first_lbas[next_index]:
            index = bisect_right(first_lbas, end) - 1
        end_spt = self._zone_spts[index]
        end_cylinder, rem = divmod(
            end - first_lbas[index], self._zone_sectors_per_cyl[index]
        )
        end_surface, end_sector = divmod(rem, end_spt)
        end_cylinder += self._zone_first_cyls[index]
        surfaces = self.surfaces
        track_crossings = (end_cylinder * surfaces + end_surface) - (
            cylinder * surfaces + surface
        )
        return (
            cylinder,
            sector_angle,
            spt,
            track_crossings,
            end_cylinder - cylinder,
            end_cylinder,
            end_sector,
            end_spt,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiskGeometry(cylinders={self.cylinders}, "
            f"surfaces={self.surfaces}, zones={len(self._zones)}, "
            f"sectors={self.total_sectors})"
        )
