"""Trace container and ASCII trace file I/O.

The on-disk format follows DiskSim's ASCII trace convention — one
request per line:

    <arrival-time-ms> <disk> <lba> <size-sectors> <R|W>

Lines beginning with ``#`` are comments.  Times must be non-decreasing.

Paths ending in ``.gz`` are read and written through gzip
transparently (both here and in the streaming readers of
:mod:`repro.workloads.formats`), so multi-million-request fixtures
stay small on disk.
"""

from __future__ import annotations

import math
import operator
import os
from itertools import islice
from typing import IO, Iterable, Iterator, List, Optional, Sequence, Union

from repro.disk.request import IORequest, new_request

__all__ = ["Trace", "load_trace", "open_trace_text", "save_trace"]


def open_trace_text(
    path: Union[str, os.PathLike], mode: str = "r"
) -> IO[str]:
    """Open a trace file as ASCII text, gunzipping ``.gz`` paths.

    ``mode`` is ``"r"`` or ``"w"``; the gzip layer is chosen purely by
    the ``.gz`` suffix so a converted trace keeps working wherever the
    uncompressed one did.
    """
    if mode not in ("r", "w"):
        raise ValueError(f"mode must be 'r' or 'w', got {mode!r}")
    if str(path).endswith(".gz"):
        import gzip

        return gzip.open(path, mode + "t", encoding="ascii")
    return open(path, mode, encoding="ascii")


class Trace:
    """An ordered sequence of I/O requests plus summary statistics."""

    def __init__(
        self,
        requests: Iterable[IORequest],
        name: str = "trace",
        sort: bool = False,
    ):
        self.requests: List[IORequest] = list(requests)
        self.name = name
        if sort:
            # Stable, so simultaneous arrivals keep their input order
            # (and therefore their FCFS tie-break behaviour).
            self.requests.sort(key=lambda request: request.arrival_time)
        # Sorted and pre-sorted traces share one validation path: a
        # sorted list passes trivially, and any future invariant added
        # here automatically covers both construction modes.
        self._validate_monotone()

    def _validate_monotone(self) -> None:
        index = first_out_of_order(self.requests)
        if index is not None:
            raise ValueError(
                f"trace {self.name!r} arrival times not monotone at "
                f"request {index}: {self.requests[index].arrival_time} "
                f"after {self.requests[index - 1].arrival_time}; pass "
                "sort=True to reorder"
            )

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[IORequest]:
        return iter(self.requests)

    def __getitem__(self, index):
        return self.requests[index]

    @property
    def duration_ms(self) -> float:
        if not self.requests:
            return 0.0
        return self.requests[-1].arrival_time - self.requests[0].arrival_time

    @property
    def read_fraction(self) -> float:
        if not self.requests:
            return 0.0
        return sum(1 for r in self.requests if r.is_read) / len(self.requests)

    @property
    def mean_interarrival_ms(self) -> float:
        if len(self.requests) < 2:
            return 0.0
        return self.duration_ms / (len(self.requests) - 1)

    @property
    def mean_size_sectors(self) -> float:
        if not self.requests:
            return 0.0
        return sum(r.size for r in self.requests) / len(self.requests)

    def disks_touched(self) -> List[int]:
        return sorted({r.source_disk for r in self.requests})

    def sequential_fraction(self) -> float:
        """Fraction of requests contiguous with the previous request on
        the same source disk."""
        if len(self.requests) < 2:
            return 0.0
        last_end = {}
        sequential = 0
        for request in self.requests:
            if last_end.get(request.source_disk) == request.lba:
                sequential += 1
            last_end[request.source_disk] = request.end_lba
        return sequential / (len(self.requests) - 1)

    def summary(self) -> dict:
        return {
            "name": self.name,
            "requests": len(self.requests),
            "duration_ms": self.duration_ms,
            "mean_interarrival_ms": self.mean_interarrival_ms,
            "read_fraction": self.read_fraction,
            "mean_size_sectors": self.mean_size_sectors,
            "disks": len(self.disks_touched()),
            "sequential_fraction": self.sequential_fraction(),
        }


def format_request_line(request: IORequest) -> str:
    """One request in the on-disk ASCII format (no trailing newline)."""
    kind = "R" if request.is_read else "W"
    return (
        f"{request.arrival_time:.6f} {request.source_disk} "
        f"{request.lba} {request.size} {kind}"
    )


#: Opcode spellings of a read (``True``) or write (``False``) that
#: the native and SPC-1 readers accept.
KINDS = {"R": True, "r": True, "W": False, "w": False}


def first_out_of_order(
    requests: Sequence[IORequest], after: float = -math.inf
) -> Optional[int]:
    """Index of the first request arriving before its predecessor.

    Request 0 is compared with ``after`` (the last arrival of whatever
    came before this run of requests).  ``None`` means the arrivals
    never decrease.  The ordered case is one C-level pass; only a
    failure pays for the Python scan that locates the offender.
    """
    arrivals = [request.arrival_time for request in requests]
    if not arrivals or (
        arrivals[0] >= after
        and all(map(operator.le, arrivals, islice(arrivals, 1, None)))
    ):
        return None
    previous = after
    for index, arrival in enumerate(arrivals):
        if arrival < previous:
            return index
        previous = arrival
    return None  # only NaN arrivals break ``<=`` without an offender


def disksim_request(fields: Sequence[str], line: str) -> IORequest:
    """One native-format record from its whitespace-split ``fields``.

    Raises ``ValueError`` without a location; callers prefix the file
    and line (or whatever ``where`` names) they are reading.
    """
    if len(fields) != 5:
        raise ValueError(
            f"expected 5 fields, got {len(fields)}: {line.strip()!r}"
        )
    arrival, disk, lba, size, kind = fields
    is_read = KINDS.get(kind)
    if is_read is None:
        raise ValueError(f"kind must be R or W, got {kind!r}")
    lba_value = int(lba)
    size_value = int(size)
    arrival_ms = float(arrival)
    source = int(disk)
    if not math.isfinite(arrival_ms):
        raise ValueError(f"arrival time must be finite, got {arrival!r}")
    return new_request(lba_value, size_value, is_read, arrival_ms, source)


def parse_request_line(
    text: str, where: str = "<line>"
) -> IORequest:
    """Parse one non-comment trace line; ``where`` labels errors."""
    try:
        return disksim_request(text.split(), text)
    except ValueError as error:
        raise ValueError(f"{where}: {error}") from None


def save_trace(
    path: Union[str, os.PathLike],
    trace: Iterable[IORequest],
    name: Optional[str] = None,
) -> None:
    """Write a trace in the ASCII format described in the module docs.

    ``trace`` may be a :class:`Trace` or any iterable of requests (a
    generator streams straight to disk without materializing); ``.gz``
    paths are gzip-compressed.  ``name`` overrides the header comment
    (defaults to ``trace.name`` when present).
    """
    header = name or getattr(trace, "name", "trace")
    with open_trace_text(path, "w") as handle:
        handle.write(f"# trace: {header}\n")
        handle.write("# arrival_ms disk lba size kind\n")
        for request in trace:
            handle.write(format_request_line(request) + "\n")


def load_trace(
    path: Union[str, os.PathLike], name: Optional[str] = None
) -> Trace:
    """Read a trace written by :func:`save_trace` (or hand-authored)."""
    # The native-format reader lives with the other formats' readers.
    from repro.workloads.formats import iter_trace_requests

    base = os.path.basename(str(path))
    if base.endswith(".gz"):
        base = base[: -len(".gz")]
    trace_name = name or os.path.splitext(base)[0]
    return Trace(iter_trace_requests(path, "disksim"), name=trace_name)
