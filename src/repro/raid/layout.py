"""Array address-translation layouts.

A layout maps one *logical* request onto one or more *physical*
slices, each a contiguous run of sectors on one member drive.  Three
layouts cover the paper's experiments:

* :class:`JBODLayout` — route by the request's ``source_disk`` field,
  leaving the address untouched.  This reproduces the original MD
  arrays, where each trace record already names its disk.
* :class:`ConcatLayout` — the paper's MD→HC-SD migration layout
  (§7.1): the single high-capacity drive is "sequentially populated
  with data from each of the drives in MD", so disk ``i``'s address
  space begins after disks ``0..i-1``.
* :class:`Raid0Layout` — classic striping for the synthetic-workload
  arrays of §7.3.
* :class:`Raid5Layout` — left-symmetric rotating parity; writes expand
  into read-modify-write slice sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "ConcatLayout",
    "InterleavedConcatLayout",
    "JBODLayout",
    "Layout",
    "Raid0Layout",
    "Raid1Layout",
    "Raid10Layout",
    "Raid5Layout",
    "Slice",
    "degraded_raid5_map",
]


@dataclass(frozen=True)
class Slice:
    """A contiguous physical run on one member drive.

    ``is_read`` can differ from the logical request for parity
    maintenance (RAID-5 read-modify-write).  ``phase`` orders slices:
    all phase-0 slices must complete before phase-1 slices are issued
    (old-data reads before new-parity writes).
    """

    disk: int
    lba: int
    size: int
    is_read: bool
    phase: int = 0

    def __post_init__(self) -> None:
        if self.disk < 0:
            raise ValueError(f"disk must be non-negative, got {self.disk}")
        if self.lba < 0:
            raise ValueError(f"lba must be non-negative, got {self.lba}")
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {self.size}")


class Layout:
    """Interface: translate a logical request into physical slices."""

    #: Number of member drives the layout spans.
    disk_count: int

    #: True when the layout can issue drive work *in reaction to* drive
    #: completions (multi-phase maps: phase-1 slices wait on phase-0).
    #: The sharded kernel uses this to pick its synchronisation
    #: protocol — feedback-free layouts can run a whole experiment in
    #: one conservative window, feedback layouts need lockstep windows
    #: bounded by the lookahead (see :mod:`repro.sim.sharded`).
    feedback_phases = False

    def capacity_sectors(self) -> int:
        """Logical capacity exposed by the layout."""
        raise NotImplementedError

    def map_request(
        self, lba: int, size: int, is_read: bool, source_disk: int = 0
    ) -> List[Slice]:
        raise NotImplementedError

    def locate(
        self, lba: int, size: int, source_disk: int = 0
    ) -> Optional[Tuple[int, int]]:
        """``(disk, physical_lba)`` of a single-extent request, else None.

        Returns a location exactly when :meth:`map_request` would return
        one slice (for either direction), so the array controller can
        serve the logical request in place.  ``None`` means "use
        ``map_request``": the extent fans out, or it is invalid and
        ``map_request`` raises the layout's own error.  The base class
        never locates.
        """
        return None

    def _check(self, lba: int, size: int) -> None:
        if lba < 0 or size <= 0:
            raise ValueError(f"bad logical extent lba={lba} size={size}")
        if lba + size > self.capacity_sectors():
            raise ValueError(
                f"extent [{lba}, {lba + size}) exceeds logical capacity "
                f"{self.capacity_sectors()}"
            )


class JBODLayout(Layout):
    """Route by ``source_disk``; addresses pass through unchanged."""

    def __init__(self, disk_capacities: Sequence[int]):
        if not disk_capacities:
            raise ValueError("need at least one disk")
        self.disk_capacities = list(disk_capacities)
        self.disk_count = len(disk_capacities)

    def capacity_sectors(self) -> int:
        return sum(self.disk_capacities)

    def map_request(
        self, lba: int, size: int, is_read: bool, source_disk: int = 0
    ) -> List[Slice]:
        if not 0 <= source_disk < self.disk_count:
            raise ValueError(
                f"source_disk {source_disk} out of range "
                f"[0, {self.disk_count})"
            )
        if lba + size > self.disk_capacities[source_disk]:
            raise ValueError(
                f"extent [{lba}, {lba + size}) exceeds disk {source_disk} "
                f"capacity {self.disk_capacities[source_disk]}"
            )
        return [Slice(source_disk, lba, size, is_read)]

    def locate(
        self, lba: int, size: int, source_disk: int = 0
    ) -> Optional[Tuple[int, int]]:
        if (
            0 <= source_disk < self.disk_count
            and 0 <= lba
            and 0 < size
            and lba + size <= self.disk_capacities[source_disk]
        ):
            return source_disk, lba
        return None


class ConcatLayout(Layout):
    """Concatenate several source address spaces onto one drive.

    ``map_request`` interprets ``(source_disk, lba)`` exactly as
    :class:`JBODLayout` does, but lands everything on drive 0 at
    ``base[source_disk] + lba`` — the paper's HC-SD data layout.
    """

    def __init__(self, source_capacities: Sequence[int]):
        if not source_capacities:
            raise ValueError("need at least one source disk")
        self.source_capacities = list(source_capacities)
        self.sources = len(self.source_capacities)
        self.disk_count = 1
        self._bases: List[int] = []
        base = 0
        for capacity in self.source_capacities:
            if capacity <= 0:
                raise ValueError(f"capacity must be positive, got {capacity}")
            self._bases.append(base)
            base += capacity
        self._total = base

    def capacity_sectors(self) -> int:
        return self._total

    def base_of(self, source_disk: int) -> int:
        return self._bases[source_disk]

    def map_request(
        self, lba: int, size: int, is_read: bool, source_disk: int = 0
    ) -> List[Slice]:
        if not 0 <= source_disk < self.sources:
            raise ValueError(
                f"source_disk {source_disk} out of range "
                f"[0, {self.sources})"
            )
        if lba < 0 or size <= 0:
            # A negative offset would otherwise land inside the
            # previous source disk's band.
            raise ValueError(f"bad logical extent lba={lba} size={size}")
        if lba + size > self.source_capacities[source_disk]:
            raise ValueError(
                f"extent [{lba}, {lba + size}) exceeds source disk "
                f"{source_disk} capacity {self.source_capacities[source_disk]}"
            )
        return [Slice(0, self._bases[source_disk] + lba, size, is_read)]

    def locate(
        self, lba: int, size: int, source_disk: int = 0
    ) -> Optional[Tuple[int, int]]:
        if (
            0 <= source_disk < self.sources
            and 0 <= lba
            and 0 < size
            and lba + size <= self.source_capacities[source_disk]
        ):
            return 0, self._bases[source_disk] + lba
        return None


class InterleavedConcatLayout(Layout):
    """Interleave several source address spaces onto one drive.

    The paper's HC-SD migration uses sequential concatenation because
    "there is insufficient information available in the I/O traces
    about the specific strategy that was used to distribute the
    application data" (§7.1).  This is the other natural choice: the
    source disks' spaces are striped onto the single drive in
    ``unit``-sector interleave, so each source disk's data spreads
    across the whole surface instead of occupying one contiguous band.
    The migration-layout ablation test compares the two.

    All source capacities must be equal (they are, for the paper's
    arrays).
    """

    def __init__(self, source_capacities: Sequence[int], unit: int = 2048):
        if not source_capacities:
            raise ValueError("need at least one source disk")
        if unit <= 0:
            raise ValueError(f"unit must be positive, got {unit}")
        first = source_capacities[0]
        if any(capacity != first for capacity in source_capacities):
            raise ValueError(
                "interleaved layout requires equal source capacities"
            )
        if first <= 0:
            raise ValueError(f"capacity must be positive, got {first}")
        self.source_capacities = list(source_capacities)
        self.sources = len(source_capacities)
        self.unit = unit
        self.disk_count = 1

    def capacity_sectors(self) -> int:
        return self.sources * self.source_capacities[0]

    def map_request(
        self, lba: int, size: int, is_read: bool, source_disk: int = 0
    ) -> List[Slice]:
        if not 0 <= source_disk < self.sources:
            raise ValueError(
                f"source_disk {source_disk} out of range "
                f"[0, {self.sources})"
            )
        if lba < 0 or size <= 0 or (
            lba + size > self.source_capacities[source_disk]
        ):
            raise ValueError(
                f"extent [{lba}, {lba + size}) invalid for source disk "
                f"{source_disk} (capacity "
                f"{self.source_capacities[source_disk]})"
            )
        slices: List[Slice] = []
        cursor = lba
        remaining = size
        while remaining > 0:
            unit_index = cursor // self.unit
            offset = cursor % self.unit
            run = min(self.unit - offset, remaining)
            physical = (
                unit_index * self.unit * self.sources
                + source_disk * self.unit
                + offset
            )
            slices.append(Slice(0, physical, run, is_read))
            cursor += run
            remaining -= run
        return _coalesce(slices)


class Raid0Layout(Layout):
    """Stripe across ``disk_count`` drives in ``stripe_unit``-sector units."""

    def __init__(
        self, disk_count: int, disk_capacity: int, stripe_unit: int = 128
    ):
        if disk_count <= 0:
            raise ValueError(f"disk_count must be positive, got {disk_count}")
        if disk_capacity <= 0:
            raise ValueError(
                f"disk_capacity must be positive, got {disk_capacity}"
            )
        if stripe_unit <= 0:
            raise ValueError(
                f"stripe_unit must be positive, got {stripe_unit}"
            )
        self.disk_count = disk_count
        self.disk_capacity = disk_capacity
        self.stripe_unit = stripe_unit

    def capacity_sectors(self) -> int:
        return self.disk_count * self.disk_capacity

    def map_request(
        self, lba: int, size: int, is_read: bool, source_disk: int = 0
    ) -> List[Slice]:
        self._check(lba, size)
        slices: List[Slice] = []
        remaining = size
        cursor = lba
        while remaining > 0:
            unit_index = cursor // self.stripe_unit
            offset = cursor % self.stripe_unit
            disk = unit_index % self.disk_count
            row = unit_index // self.disk_count
            run = min(self.stripe_unit - offset, remaining)
            slices.append(
                Slice(disk, row * self.stripe_unit + offset, run, is_read)
            )
            cursor += run
            remaining -= run
        return _coalesce(slices)

    def locate(
        self, lba: int, size: int, source_disk: int = 0
    ) -> Optional[Tuple[int, int]]:
        # In place when the extent sits inside one stripe unit; on a
        # one-member array consecutive units are consecutive rows, so
        # map_request coalesces any in-range extent into one slice.
        disks = self.disk_count
        if lba < 0 or size <= 0 or lba + size > disks * self.disk_capacity:
            return None
        if disks == 1:
            return 0, lba
        unit = self.stripe_unit
        offset = lba % unit
        if offset + size > unit:
            return None
        unit_index = lba // unit
        return unit_index % disks, unit_index // disks * unit + offset


class Raid5Layout(Layout):
    """Left-symmetric RAID-5: parity rotates across the members.

    Reads map like RAID-0 over ``disk_count - 1`` data units per row.
    Small writes expand into the classic read-modify-write: phase 0
    reads old data and old parity; phase 1 writes new data and new
    parity.
    """

    feedback_phases = True

    def __init__(
        self, disk_count: int, disk_capacity: int, stripe_unit: int = 128
    ):
        if disk_count < 3:
            raise ValueError(
                f"RAID-5 needs at least 3 disks, got {disk_count}"
            )
        if disk_capacity <= 0:
            raise ValueError(
                f"disk_capacity must be positive, got {disk_capacity}"
            )
        if stripe_unit <= 0:
            raise ValueError(
                f"stripe_unit must be positive, got {stripe_unit}"
            )
        self.disk_count = disk_count
        self.disk_capacity = disk_capacity
        self.stripe_unit = stripe_unit

    @property
    def data_disks(self) -> int:
        return self.disk_count - 1

    def capacity_sectors(self) -> int:
        return self.data_disks * self.disk_capacity

    def _locate(self, unit_index: int) -> tuple:
        """(disk, row, parity_disk) for a logical stripe unit."""
        row = unit_index // self.data_disks
        position = unit_index % self.data_disks
        parity_disk = (self.disk_count - 1 - row) % self.disk_count
        # Left-symmetric: data units start just after the parity disk.
        disk = (parity_disk + 1 + position) % self.disk_count
        return disk, row, parity_disk

    def map_request(
        self, lba: int, size: int, is_read: bool, source_disk: int = 0
    ) -> List[Slice]:
        self._check(lba, size)
        slices: List[Slice] = []
        remaining = size
        cursor = lba
        while remaining > 0:
            unit_index = cursor // self.stripe_unit
            offset = cursor % self.stripe_unit
            disk, row, parity_disk = self._locate(unit_index)
            run = min(self.stripe_unit - offset, remaining)
            physical = row * self.stripe_unit + offset
            if is_read:
                slices.append(Slice(disk, physical, run, True))
            else:
                # Read-modify-write: old data + old parity, then new
                # data + new parity.
                slices.append(Slice(disk, physical, run, True, phase=0))
                slices.append(Slice(parity_disk, physical, run, True, phase=0))
                slices.append(Slice(disk, physical, run, False, phase=1))
                slices.append(
                    Slice(parity_disk, physical, run, False, phase=1)
                )
            cursor += run
            remaining -= run
        return _coalesce(slices)


class Raid1Layout(Layout):
    """Mirroring across ``disk_count`` replicas.

    Writes fan out to every replica; reads round-robin across replicas
    (read balancing), which is how mirrored arrays convert redundancy
    into read throughput.
    """

    def __init__(self, disk_count: int, disk_capacity: int):
        if disk_count < 2:
            raise ValueError(
                f"RAID-1 needs at least 2 disks, got {disk_count}"
            )
        if disk_capacity <= 0:
            raise ValueError(
                f"disk_capacity must be positive, got {disk_capacity}"
            )
        self.disk_count = disk_count
        self.disk_capacity = disk_capacity
        self._next_read_replica = 0

    def capacity_sectors(self) -> int:
        return self.disk_capacity

    def map_request(
        self, lba: int, size: int, is_read: bool, source_disk: int = 0
    ) -> List[Slice]:
        self._check(lba, size)
        if is_read:
            replica = self._next_read_replica
            self._next_read_replica = (replica + 1) % self.disk_count
            return [Slice(replica, lba, size, True)]
        return [
            Slice(disk, lba, size, False) for disk in range(self.disk_count)
        ]


class Raid10Layout(Layout):
    """Striping over mirrored pairs (RAID-1+0).

    ``disk_count`` must be even; disks ``2k`` and ``2k+1`` mirror each
    other and the pairs are striped RAID-0 style.
    """

    def __init__(
        self, disk_count: int, disk_capacity: int, stripe_unit: int = 128
    ):
        if disk_count < 4 or disk_count % 2 != 0:
            raise ValueError(
                f"RAID-10 needs an even disk count >= 4, got {disk_count}"
            )
        self.disk_count = disk_count
        self.disk_capacity = disk_capacity
        self.stripe_unit = stripe_unit
        self._stripe = Raid0Layout(
            disk_count // 2, disk_capacity, stripe_unit
        )
        self._next_read_side = 0

    def capacity_sectors(self) -> int:
        return self._stripe.capacity_sectors()

    def map_request(
        self, lba: int, size: int, is_read: bool, source_disk: int = 0
    ) -> List[Slice]:
        self._check(lba, size)
        pieces = self._stripe.map_request(lba, size, is_read, source_disk)
        slices: List[Slice] = []
        for piece in pieces:
            primary = 2 * piece.disk
            if is_read:
                side = self._next_read_side
                self._next_read_side = 1 - side
                slices.append(
                    Slice(primary + side, piece.lba, piece.size, True)
                )
            else:
                slices.append(
                    Slice(primary, piece.lba, piece.size, False)
                )
                slices.append(
                    Slice(primary + 1, piece.lba, piece.size, False)
                )
        return slices


def degraded_raid5_map(
    layout: "Raid5Layout",
    lba: int,
    size: int,
    is_read: bool,
    failed_disk: int,
) -> List[Slice]:
    """RAID-5 address translation with one failed member.

    * Reads whose data unit lives on the failed disk are served by
      *reconstruction*: read the same row extent from every surviving
      member (data siblings + parity) and XOR — so one logical read
      fans out to ``disk_count - 1`` physical reads.
    * Writes whose data unit lives on the failed disk degrade to a
      *reconstruct-write*: read the row from all survivors except
      parity, then write the new parity (the data itself cannot be
      stored until rebuild).
    * Accesses to healthy disks map normally, except that RMW reads of
      a failed parity disk are skipped (parity is simply lost for that
      row until rebuild) and the parity write is dropped.
    """
    if not 0 <= failed_disk < layout.disk_count:
        raise ValueError(
            f"failed_disk {failed_disk} out of range "
            f"[0, {layout.disk_count})"
        )
    layout._check(lba, size)
    slices: List[Slice] = []
    cursor = lba
    remaining = size
    while remaining > 0:
        unit_index = cursor // layout.stripe_unit
        offset = cursor % layout.stripe_unit
        disk, row, parity_disk = layout._locate(unit_index)
        run = min(layout.stripe_unit - offset, remaining)
        physical = row * layout.stripe_unit + offset
        survivors = [
            member
            for member in range(layout.disk_count)
            if member != failed_disk
        ]
        if is_read:
            if disk == failed_disk:
                slices.extend(
                    Slice(member, physical, run, True)
                    for member in survivors
                )
            else:
                slices.append(Slice(disk, physical, run, True))
        else:
            if disk == failed_disk:
                # Reconstruct-write: read surviving data siblings,
                # write new parity.
                for member in survivors:
                    if member != parity_disk:
                        slices.append(
                            Slice(member, physical, run, True, phase=0)
                        )
                slices.append(
                    Slice(parity_disk, physical, run, False, phase=1)
                )
            elif parity_disk == failed_disk:
                # Parity lost: plain write of the data, no RMW.
                slices.append(Slice(disk, physical, run, False))
            else:
                slices.append(Slice(disk, physical, run, True, phase=0))
                slices.append(
                    Slice(parity_disk, physical, run, True, phase=0)
                )
                slices.append(Slice(disk, physical, run, False, phase=1))
                slices.append(
                    Slice(parity_disk, physical, run, False, phase=1)
                )
        cursor += run
        remaining -= run
    return _coalesce(slices)


def _coalesce(slices: List[Slice]) -> List[Slice]:
    """Merge physically adjacent slices on the same disk/kind/phase."""
    merged: List[Slice] = []
    for piece in slices:
        if merged:
            last = merged[-1]
            if (
                last.disk == piece.disk
                and last.is_read == piece.is_read
                and last.phase == piece.phase
                and last.lba + last.size == piece.lba
            ):
                merged[-1] = Slice(
                    last.disk,
                    last.lba,
                    last.size + piece.size,
                    last.is_read,
                    last.phase,
                )
                continue
        merged.append(piece)
    return merged
