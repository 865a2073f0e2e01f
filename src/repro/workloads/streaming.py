"""Bounded-memory trace streaming.

A :class:`StreamingTrace` is the disk-backed sibling of
:class:`~repro.workloads.trace.Trace`: it yields requests straight
from a trace file (any format in
:mod:`repro.workloads.formats`, gzip transparent) without ever
materializing the full request list, so a multi-million-request
SPC-style trace replays at a flat memory ceiling set by the chunk
size, not the trace length.

The stream is *re-iterable* — every iteration reopens the file — so
one ``StreamingTrace`` can be replayed against many configurations,
exactly like an in-memory ``Trace``.  Its native unit is the chunk
(:meth:`StreamingTrace.iter_chunks`); arrival-time monotonicity is
validated once per chunk, before the chunk is handed on, so an
out-of-order file fails loudly at the offending request instead of
silently corrupting response times (use ``repro trace convert
--sort`` to repair one).
"""

from __future__ import annotations

import math
import os
from typing import Dict, Iterator, List, Optional, Union

from repro.disk.request import IORequest
from repro.obs.context import current
from repro.workloads.formats import (
    DEFAULT_CHUNK_REQUESTS,
    _new_skip_counts,
    detect_trace_format,
    iter_trace_chunks,
    stat_trace,
)
from repro.workloads.trace import Trace, first_out_of_order

__all__ = ["DEFAULT_CHUNK_REQUESTS", "StreamingTrace"]


class StreamingTrace:
    """A trace file exposed as a bounded-memory request stream."""

    def __init__(
        self,
        path: Union[str, os.PathLike],
        trace_format: Optional[str] = None,
        name: Optional[str] = None,
        chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
    ):
        if chunk_requests < 1:
            raise ValueError(
                f"chunk_requests must be >= 1, got {chunk_requests}"
            )
        if not os.path.exists(path):
            raise FileNotFoundError(f"no trace file at {path}")
        self.path = str(path)
        self.trace_format = trace_format or detect_trace_format(path)
        self.name = name or _stem(self.path)
        self.chunk_requests = chunk_requests
        #: Per-reason skipped-line counts of the lines the last
        #: iteration pass read, set whenever the pass stops: at the end
        #: of the file, at a ``limit``, on an error, or when the
        #: consumer closes it early (empty until a pass stops).
        self.last_skipped: Dict[str, int] = {}

    def __repr__(self) -> str:
        return (
            f"StreamingTrace({self.path!r}, format={self.trace_format!r}, "
            f"chunk_requests={self.chunk_requests})"
        )

    def __iter__(self) -> Iterator[IORequest]:
        """Yield requests in file order, enforcing monotone arrivals."""
        for chunk in self.iter_chunks():
            yield from chunk

    def iter_chunks(
        self,
        chunk_requests: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> Iterator[List[IORequest]]:
        """Yield lists of at most ``chunk_requests`` requests.

        This is the bounded-memory unit the replay pipeline works in:
        at any instant only one chunk (plus in-flight requests) is
        resident.  ``limit`` stops the pass after that many requests,
        without parsing past the last one.
        """
        size = chunk_requests or self.chunk_requests
        if size < 1:
            raise ValueError(f"chunk_requests must be >= 1, got {size}")
        skipped = _new_skip_counts()
        last_arrival = -math.inf
        yielded = 0
        try:
            for chunk in iter_trace_chunks(
                self.path, self.trace_format, skipped, size, limit
            ):
                offender = first_out_of_order(chunk, last_arrival)
                if offender is not None:
                    previous = (
                        chunk[offender - 1].arrival_time
                        if offender
                        else last_arrival
                    )
                    raise ValueError(
                        f"streaming trace {self.name!r} arrival times "
                        f"not monotone at request {yielded + offender}: "
                        f"{chunk[offender].arrival_time} after "
                        f"{previous}; convert with --sort first"
                    )
                last_arrival = chunk[-1].arrival_time
                yielded += len(chunk)
                yield chunk
        finally:
            self._record_skipped(skipped)

    def _record_skipped(self, skipped: Dict[str, int]) -> None:
        self.last_skipped = {k: v for k, v in skipped.items() if v}
        metrics = current().metrics
        if metrics.enabled and self.last_skipped:
            family = metrics.counter(
                "repro_trace_skipped_lines_total",
                "Trace lines the readers ignored, by reason",
                labels=("reason",),
            )
            for reason, count in sorted(self.last_skipped.items()):
                family.labels(reason=reason).inc(count)

    def materialize(self, limit: Optional[int] = None) -> Trace:
        """Read (a prefix of) the stream into an in-memory ``Trace``.

        ``limit`` truncates to the first N requests — the hook the
        serial-vs-streamed bit-identity checks use to compare a
        tractable prefix of a huge trace.
        """
        if limit is not None and limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        requests: List[IORequest] = []
        for chunk in self.iter_chunks(limit=limit):
            requests.extend(chunk)
        return Trace(requests, name=self.name)

    def count(self) -> int:
        """Number of requests in the file (one full streaming pass)."""
        return sum(
            map(len, iter_trace_chunks(self.path, self.trace_format))
        )

    def summary(self) -> Dict:
        """The same summary an in-memory ``Trace`` reports, computed
        in one streaming pass (plus format/monotonicity metadata)."""
        summary = stat_trace(self.path, self.trace_format)
        summary["name"] = self.name
        return summary


def _stem(path: str) -> str:
    base = os.path.basename(path)
    if base.endswith(".gz"):
        base = base[: -len(".gz")]
    return os.path.splitext(base)[0]
