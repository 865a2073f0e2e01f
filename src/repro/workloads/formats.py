"""Streaming readers and writers for on-disk trace formats.

Three ASCII formats cover the traces the paper's studies were driven
by (§7.1, Table 2) plus what modern tooling produces:

``disksim``
    This repo's native format (see :mod:`repro.workloads.trace`):
    ``<arrival-ms> <disk> <lba> <size-sectors> <R|W>`` with ``#``
    comments.

``spc1``
    The SPC-1 / UMass trace-repository CSV convention the paper's
    Financial and Websearch traces are published in::

        ASU,LBA,Size,Opcode,Timestamp

    ``ASU`` (application storage unit) maps to ``source_disk``,
    ``Size`` is in bytes (rounded up to whole sectors), ``Opcode`` is
    ``r``/``R``/``w``/``W`` and ``Timestamp`` is in seconds.

``blktrace``
    The default ``blkparse`` per-event text output::

        <maj,min> <cpu> <seq> <time-s> <pid> <action> <rwbs> \
            <sector> + <nsectors> [process]

    Only one event per request is replayed (default action ``Q``, the
    queue-insertion event — the closest analogue of an open-loop
    arrival); devices map to ``source_disk`` in order of first
    appearance.  Lines that are not per-event records (blkparse
    summaries, other actions, zero-sector barriers) are skipped and
    counted.

Every reader is one loop over the file's lines that builds lists of
up to ``chunk_requests`` requests with the fast constructor
:func:`~repro.disk.request.new_request` — only one chunk is resident,
so a multi-million-request trace can be converted, profiled or
replayed at a flat memory ceiling, and a consumer pays one generator
resumption per chunk rather than per request.  A ``limit`` stops the
reader at that many requests: nothing past the last one is parsed.
``.gz`` paths are handled transparently by
:func:`repro.workloads.trace.open_trace_text`.

Malformed records of the native and SPC-1 formats raise
``ValueError("<path>:<line>: ...")``: a wrong field count, an unknown
opcode, a field ``int``/``float`` cannot parse, a non-finite
timestamp, a negative LBA, a non-positive native size or a negative
SPC-1 byte count.  blktrace text interleaves per-event records with
anything else ``blkparse`` prints, so its reader counts what it cannot
replay as skipped instead (non-finite times and negative sectors
count as ``non_event``).
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Union

from repro.disk.request import IORequest, new_request
from repro.workloads.trace import (
    KINDS,
    Trace,
    disksim_request,
    format_request_line,
    open_trace_text,
)

__all__ = [
    "DEFAULT_CHUNK_REQUESTS",
    "TRACE_FORMATS",
    "convert_trace",
    "detect_trace_format",
    "iter_trace_chunks",
    "iter_trace_requests",
    "stat_trace",
    "write_trace_requests",
]

#: Formats readers/writers exist for, in documentation order.
TRACE_FORMATS = ("disksim", "spc1", "blktrace")

#: Default read chunk: large enough to amortize per-chunk overhead,
#: small enough that a chunk of requests is a few MB resident.
DEFAULT_CHUNK_REQUESTS = 65536

_SUFFIX_FORMATS = {
    ".trace": "disksim",
    ".dsim": "disksim",
    ".txt": "disksim",
    ".spc": "spc1",
    ".spc1": "spc1",
    ".csv": "spc1",
    ".blktrace": "blktrace",
    ".blkparse": "blktrace",
}

_MS_PER_S = 1000.0
_SECTOR_BYTES = 512


def detect_trace_format(path: Union[str, os.PathLike]) -> str:
    """Infer a trace format from the path suffix (``.gz`` stripped).

    Unknown suffixes default to the native ``disksim`` format, which
    fails loudly on the first malformed line rather than guessing.
    """
    text = str(path)
    if text.endswith(".gz"):
        text = text[: -len(".gz")]
    suffix = os.path.splitext(text)[1].lower()
    return _SUFFIX_FORMATS.get(suffix, "disksim")


def _skip(skipped: Dict[str, int], reason: str) -> None:
    # ``.get`` rather than ``+=``: callers may pass dicts predating a
    # newly introduced reason key.
    skipped[reason] = skipped.get(reason, 0) + 1


def _chunk_sizes(chunk_requests: int, limit: Optional[int]) -> Iterator[int]:
    """Sizes of the chunks a reader fills, in order: ``chunk_requests``
    each, the last one cut so the total stops at ``limit``."""
    if limit is None:
        return itertools.repeat(chunk_requests)
    full, rest = divmod(limit, chunk_requests)
    return itertools.chain(
        itertools.repeat(chunk_requests, full), [rest] if rest else []
    )


# Each reader below fills one chunk per size drawn from ``sizes`` and
# yields it; a short chunk means the file ended.  Once ``sizes`` runs
# out the reader returns, so a limited read stops at the last wanted
# request without parsing the line after it.


def _read_disksim(
    handle: Iterable[str],
    where: str,
    skipped: Dict[str, int],
    sizes: Iterator[int],
) -> Iterator[List[IORequest]]:
    lines = enumerate(handle, start=1)
    for size in sizes:
        chunk: List[IORequest] = []
        append = chunk.append
        for line_number, line in lines:
            fields = line.split()
            if not fields:
                _skip(skipped, "blank")
                continue
            if fields[0][0] == "#":
                _skip(skipped, "comments")
                continue
            try:
                append(disksim_request(fields, line))
            except ValueError as error:
                raise ValueError(f"{where}:{line_number}: {error}") from None
            if len(chunk) == size:
                break
        if chunk:
            yield chunk
        if len(chunk) < size:
            return


def _read_spc1(
    handle: Iterable[str],
    where: str,
    skipped: Dict[str, int],
    sizes: Iterator[int],
) -> Iterator[List[IORequest]]:
    lines = enumerate(handle, start=1)
    isfinite = math.isfinite
    for size in sizes:
        chunk: List[IORequest] = []
        append = chunk.append
        for line_number, line in lines:
            text = line.strip()
            if not text:
                _skip(skipped, "blank")
                continue
            if text[0] == "#":
                _skip(skipped, "comments")
                continue
            fields = text.split(",")
            try:
                if len(fields) < 5:
                    raise ValueError(
                        "expected 5 comma-separated SPC-1 fields "
                        "(ASU,LBA,Size,Opcode,Timestamp), got "
                        f"{len(fields)}: {text!r}"
                    )
                is_read = KINDS.get(fields[3].strip())
                if is_read is None:
                    raise ValueError(
                        "SPC-1 opcode must be r or w, got "
                        f"{fields[3].strip()!r}"
                    )
                # int() and float() ignore surrounding whitespace, so
                # the numeric fields need no strip().
                size_bytes = int(fields[2])
                lba = int(fields[1])
                arrival = float(fields[4]) * _MS_PER_S
                asu = int(fields[0])
                if size_bytes < 0:
                    raise ValueError(
                        f"SPC-1 size must be non-negative, got "
                        f"{size_bytes} bytes"
                    )
                if not isfinite(arrival):
                    raise ValueError(
                        "SPC-1 timestamp must be finite, got "
                        f"{fields[4].strip()!r}"
                    )
                # Bytes round up to whole sectors; a zero-byte record
                # replays as one sector.
                sectors = (size_bytes + _SECTOR_BYTES - 1) // _SECTOR_BYTES
                append(new_request(lba, sectors or 1, is_read, arrival, asu))
            except ValueError as error:
                raise ValueError(f"{where}:{line_number}: {error}") from None
            if len(chunk) == size:
                break
        if chunk:
            yield chunk
        if len(chunk) < size:
            return


def _read_blktrace(
    handle: Iterable[str],
    where: str,
    skipped: Dict[str, int],
    sizes: Iterator[int],
    action: str = "Q",
) -> Iterator[List[IORequest]]:
    device_ids: Dict[str, int] = {}
    lines = iter(handle)
    for size in sizes:
        chunk: List[IORequest] = []
        append = chunk.append
        for line in lines:
            fields = line.split()
            if not fields:
                _skip(skipped, "blank")
                continue
            # Per-event records have at least: dev cpu seq time pid
            # action rwbs sector + nsectors.  Everything else (the
            # blkparse per-CPU summary block, truncated lines) is
            # skipped.
            if len(fields) < 10 or fields[8] != "+":
                _skip(skipped, "non_event")
                continue
            try:
                arrival = float(fields[3]) * _MS_PER_S
                sector = int(fields[7])
                nsectors = int(fields[9])
            except ValueError:
                _skip(skipped, "non_event")
                continue
            if sector < 0 or not math.isfinite(arrival):
                _skip(skipped, "non_event")
                continue
            if fields[5] != action:
                _skip(skipped, "other_action")
                continue
            rwbs = fields[6].upper()
            if "R" in rwbs:
                is_read = True  # plain reads and readahead ('RA') alike
            elif "W" in rwbs or "D" in rwbs:
                is_read = False  # writes; discards modelled as writes
            else:
                _skip(skipped, "no_data")
                continue
            if nsectors <= 0:
                _skip(skipped, "no_data")
                continue
            source = device_ids.setdefault(fields[0], len(device_ids))
            append(new_request(sector, nsectors, is_read, arrival, source))
            if len(chunk) == size:
                break
        if chunk:
            yield chunk
        if len(chunk) < size:
            return


_READERS: Dict[str, Callable] = {
    "disksim": _read_disksim,
    "spc1": _read_spc1,
    "blktrace": _read_blktrace,
}


def iter_trace_chunks(
    path: Union[str, os.PathLike],
    trace_format: Optional[str] = None,
    skipped: Optional[Dict[str, int]] = None,
    chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
    limit: Optional[int] = None,
) -> Iterator[List[IORequest]]:
    """Stream a trace file as lists of at most ``chunk_requests``
    requests, in file order.

    ``trace_format`` defaults to :func:`detect_trace_format`;
    ``skipped``, when given, accumulates per-reason counts of lines
    the reader ignored (comments, non-event blktrace records, ...) as
    they are read.  ``limit`` stops reading after that many requests.
    Chunk boundaries never change which requests, skip counts or
    error a file yields — only how many requests one list holds.
    """
    chosen = trace_format or detect_trace_format(path)
    try:
        reader = _READERS[chosen]
    except KeyError:
        raise ValueError(
            f"unknown trace format {chosen!r}; choose from "
            f"{', '.join(TRACE_FORMATS)}"
        ) from None
    if chunk_requests < 1:
        raise ValueError(
            f"chunk_requests must be >= 1, got {chunk_requests}"
        )
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    counts = skipped if skipped is not None else _new_skip_counts()
    with open_trace_text(path, "r") as handle:
        yield from reader(
            handle, str(path), counts, _chunk_sizes(chunk_requests, limit)
        )


def iter_trace_requests(
    path: Union[str, os.PathLike],
    trace_format: Optional[str] = None,
    skipped: Optional[Dict[str, int]] = None,
    limit: Optional[int] = None,
) -> Iterator[IORequest]:
    """Stream the requests of a trace file, one at a time: the
    flattened :func:`iter_trace_chunks` (same arguments)."""
    for chunk in iter_trace_chunks(path, trace_format, skipped, limit=limit):
        yield from chunk


def _new_skip_counts() -> Dict[str, int]:
    return {
        "blank": 0,
        "comments": 0,
        "non_event": 0,
        "other_action": 0,
        "no_data": 0,
    }


def _format_spc1_line(request: IORequest) -> str:
    opcode = "r" if request.is_read else "w"
    return (
        f"{request.source_disk},{request.lba},"
        f"{request.size * _SECTOR_BYTES},{opcode},"
        f"{request.arrival_time / _MS_PER_S:.6f}"
    )


def write_trace_requests(
    path: Union[str, os.PathLike],
    requests: Iterable[IORequest],
    trace_format: str = "disksim",
    name: str = "trace",
) -> int:
    """Stream ``requests`` to ``path`` in ``trace_format``; returns the
    request count.  ``blktrace`` is read-only (it is a kernel event
    log, not a replay format)."""
    if trace_format == "disksim":
        formatter = format_request_line
        header = [f"# trace: {name}", "# arrival_ms disk lba size kind"]
    elif trace_format == "spc1":
        formatter = _format_spc1_line
        header = []
    else:
        raise ValueError(
            f"cannot write format {trace_format!r}; choose from "
            "disksim, spc1"
        )
    count = 0
    with open_trace_text(path, "w") as handle:
        for line in header:
            handle.write(line + "\n")
        for request in requests:
            handle.write(formatter(request) + "\n")
            count += 1
    return count


def convert_trace(
    src: Union[str, os.PathLike],
    dst: Union[str, os.PathLike],
    in_format: Optional[str] = None,
    out_format: Optional[str] = None,
    sort: bool = False,
    limit: Optional[int] = None,
    name: Optional[str] = None,
) -> Dict:
    """Convert a trace file between formats, streaming by default.

    ``sort=True`` materializes the trace to reorder non-monotone
    arrivals (stable, so equal arrivals keep file order); without it
    the conversion is a flat-memory pass and out-of-order inputs are
    passed through untouched (the replay layer validates arrival
    order).  ``limit`` truncates to the first N requests.  Returns a
    summary dict (requests written, skipped-line counts, formats).
    """
    if limit is not None and limit <= 0:
        raise ValueError(f"limit must be positive, got {limit}")
    chosen_in = in_format or detect_trace_format(src)
    chosen_out = out_format or detect_trace_format(dst)
    skipped = _new_skip_counts()
    stream: Iterable[IORequest] = iter_trace_requests(
        src, chosen_in, skipped=skipped, limit=limit
    )
    trace_name = name or _stem(dst)
    if sort:
        stream = Trace(stream, name=trace_name, sort=True)
    written = write_trace_requests(
        dst, stream, trace_format=chosen_out, name=trace_name
    )
    return {
        "src": str(src),
        "dst": str(dst),
        "in_format": chosen_in,
        "out_format": chosen_out,
        "requests": written,
        "sorted": sort,
        "skipped": {k: v for k, v in skipped.items() if v},
    }


def _stem(path: Union[str, os.PathLike]) -> str:
    base = os.path.basename(str(path))
    if base.endswith(".gz"):
        base = base[: -len(".gz")]
    return os.path.splitext(base)[0]


def stat_trace(
    path: Union[str, os.PathLike],
    trace_format: Optional[str] = None,
) -> Dict:
    """One streaming pass over a trace file: the same summary a
    :class:`~repro.workloads.trace.Trace` reports, without
    materializing, plus skipped-line counts and a monotonicity flag."""
    chosen = trace_format or detect_trace_format(path)
    skipped = _new_skip_counts()
    count = 0
    reads = 0
    size_total = 0
    first_arrival = 0.0
    last_arrival = 0.0
    monotone = True
    disks = set()
    last_end: Dict[int, int] = {}
    sequential = 0
    for request in iter_trace_requests(path, chosen, skipped=skipped):
        if count == 0:
            first_arrival = request.arrival_time
        elif request.arrival_time < last_arrival:
            monotone = False
        last_arrival = request.arrival_time
        count += 1
        if request.is_read:
            reads += 1
        size_total += request.size
        disks.add(request.source_disk)
        if last_end.get(request.source_disk) == request.lba:
            sequential += 1
        last_end[request.source_disk] = request.end_lba
    duration = last_arrival - first_arrival if count else 0.0
    return {
        "name": _stem(path),
        "path": str(path),
        "format": chosen,
        "requests": count,
        "duration_ms": duration,
        "mean_interarrival_ms": duration / (count - 1) if count > 1 else 0.0,
        "read_fraction": reads / count if count else 0.0,
        "mean_size_sectors": size_total / count if count else 0.0,
        "disks": len(disks),
        "sequential_fraction": (
            sequential / (count - 1) if count > 1 else 0.0
        ),
        "monotone": monotone,
        "skipped": {k: v for k, v in skipped.items() if v},
    }
