"""The I/O request object exchanged between workloads and storage models.

A single :class:`IORequest` flows from a workload generator (or trace
reader), optionally through a RAID controller that splits it, down to a
drive, which stamps it with per-phase service measurements on the way
back.  All times are in milliseconds; addresses are 512-byte sectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.context import current

__all__ = ["IORequest", "SECTOR_BYTES", "new_request"]

#: Size of one logical sector, in bytes.
SECTOR_BYTES = 512


@dataclass(slots=True)
class IORequest:
    """One logical I/O: ``size`` sectors at ``lba``, read or write.

    Measurement fields are filled in by whichever drive services the
    request; they remain at their defaults for cache hits (other than
    ``completion_time``).
    """

    lba: int
    size: int
    is_read: bool
    arrival_time: float = 0.0
    #: Index of the source disk in the original multi-disk trace; used by
    #: the MD→HC-SD concatenated layout and by RAID address translation.
    source_disk: int = 0
    #: Background (best-effort) work, e.g. scrubbing or defragmentation.
    #: Freeblock scheduling services these inside foreground rotational
    #: latency windows; intra-disk parallel drives can dedicate an arm.
    background: bool = False
    #: Drawn from the run context's counter (``current().request_ids``).
    request_id: int = field(
        default_factory=lambda: next(current().request_ids)
    )

    # -- measurements (stamped by the servicing drive) --------------------
    start_service: Optional[float] = None
    completion_time: Optional[float] = None
    seek_time: float = 0.0
    rotational_latency: float = 0.0
    transfer_time: float = 0.0
    cache_hit: bool = False
    #: Which arm assembly serviced the request (always 0 on a
    #: conventional drive).
    arm_id: int = 0
    #: True when a media error survived the drive's retry budget — the
    #: access completed (timing-wise) but the data is unrecovered and
    #: the layer above must retry, reconstruct, or report loss.
    media_error: bool = False
    #: Retry revolutions spent on this request (drive level) plus, for
    #: logical array requests, slice resubmissions.
    retries: int = 0

    def __post_init__(self) -> None:
        if self.lba < 0:
            raise ValueError(f"lba must be non-negative, got {self.lba}")
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {self.size}")

    @property
    def end_lba(self) -> int:
        """One past the last sector touched."""
        return self.lba + self.size

    @property
    def response_time(self) -> float:
        """Arrival-to-completion latency; raises if not yet complete."""
        if self.completion_time is None:
            raise ValueError(f"request {self.request_id} not complete")
        return self.completion_time - self.arrival_time

    @property
    def service_time(self) -> float:
        """Time spent in actual service (excludes queueing delay)."""
        if self.completion_time is None or self.start_service is None:
            raise ValueError(f"request {self.request_id} not complete")
        return self.completion_time - self.start_service

    @property
    def queue_delay(self) -> float:
        """Time spent waiting before service began."""
        if self.start_service is None:
            raise ValueError(f"request {self.request_id} not started")
        return self.start_service - self.arrival_time

    def clone(self, **overrides) -> "IORequest":
        """A fresh request (new id, cleared measurements) with overrides.

        Copies the workload fields (``lba``, ``size``, ``is_read``,
        ``arrival_time``, ``source_disk``, ``background``), applies
        ``overrides`` and builds through the dataclass constructor, so
        an unknown key fails loudly and the copy is validated like any
        request.  Code that builds requests in bulk (trace replay, the
        array's per-slice requests) uses :func:`new_request` instead.
        """
        fields = {
            "lba": self.lba,
            "size": self.size,
            "is_read": self.is_read,
            "arrival_time": self.arrival_time,
            "source_disk": self.source_disk,
            "background": self.background,
        }
        fields.update(overrides)
        return IORequest(**fields)

    def __str__(self) -> str:
        kind = "R" if self.is_read else "W"
        return (
            f"IORequest#{self.request_id}({kind} lba={self.lba} "
            f"size={self.size} t={self.arrival_time:.3f})"
        )


def new_request(
    lba: int,
    size: int,
    is_read: bool,
    arrival_time: float = 0.0,
    source_disk: int = 0,
    background: bool = False,
) -> IORequest:
    """The fast constructor, for code that builds requests in bulk.

    Equivalent to ``IORequest(lba=..., size=..., is_read=...,
    arrival_time=..., source_disk=..., background=...)`` — same
    validation, same id sequence — without the dataclass
    ``__init__``/``__post_init__`` frames.  Workload generators and
    trace readers build every request through it, the replay runner
    its per-run copy of each trace request, and the array controller
    each physical slice.
    """
    if lba < 0:
        raise ValueError(f"lba must be non-negative, got {lba}")
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    new = object.__new__(IORequest)
    new.lba = lba
    new.size = size
    new.is_read = is_read
    new.arrival_time = arrival_time
    new.source_disk = source_disk
    new.background = background
    new.request_id = next(current().request_ids)
    new.start_service = None
    new.completion_time = None
    new.seek_time = 0.0
    new.rotational_latency = 0.0
    new.transfer_time = 0.0
    new.cache_hit = False
    new.arm_id = 0
    new.media_error = False
    new.retries = 0
    return new
