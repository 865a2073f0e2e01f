"""Span recording: the core of the observability subsystem.

A *span* is one attributed interval of simulated time — a request
waiting in a queue, an arm seeking, the platter rotating under the
head, sectors streaming off the media.  Spans carry a ``track``: a
``(process, thread)`` pair that the exporters map onto Perfetto's
process/thread rows, so a drive renders as a process and each arm
assembly as a track inside it.

Because every phase duration in this simulator is fixed at dispatch
time (the drives issue one combined timeout per request), spans are
recorded *prospectively* — the instrumentation knows each phase's start
and duration before yielding — and recording never schedules engine
events.  Tracing therefore cannot perturb a run: figures are
bit-identical with a :class:`Tracer` installed or not.

The default tracer everywhere is the :data:`NULL_TRACER` singleton,
whose ``enabled`` flag lets hot paths skip even the argument packing::

    if tracer.enabled:
        tracer.span("seek", "seek", start, dur, (self.label, "arm 0"))

Components find the tracer in the ambient run context
(:func:`repro.obs.context.current`), which :func:`tracing` installs.
That is what lets ``python -m repro <cmd> --trace`` observe a whole
experiment without changing any driver signature, including jobs that
build their environments deep inside worker processes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import NULL_METRICS, MetricsRegistry

__all__ = [
    "NULL_TRACER",
    "PHASES",
    "NullTracer",
    "Span",
    "Tracer",
    "tracing",
]

#: The canonical span categories emitted by the instrumented stack.
#: ``overhead`` (controller overhead) and ``array`` (logical-request
#: envelopes) ride along; the first six are the analytically
#: meaningful phases of the paper's decomposition, and ``retry`` is
#: the fault layer's contribution — revolutions spent re-reading after
#: an injected media error.
PHASES = (
    "queue", "seek", "rotation", "transfer", "cache", "rebuild", "retry"
)


class Span:
    """One attributed interval: ``[ts, ts + dur)`` in simulated ms.

    ``dur is None`` marks an *instant* (a point annotation, e.g. an
    SPTF arm decision).  ``track`` is ``(process, thread)``.
    """

    __slots__ = ("name", "cat", "ts", "dur", "track", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        ts: float,
        dur: Optional[float],
        track: Tuple[str, str],
        args: Optional[Dict] = None,
    ):
        self.name = name
        self.cat = cat
        self.ts = ts
        self.dur = dur
        self.track = track
        self.args = args

    @property
    def is_instant(self) -> bool:
        return self.dur is None

    def to_tuple(self) -> Tuple:
        """Picklable/JSON-compatible form (used across processes)."""
        return (
            self.name,
            self.cat,
            self.ts,
            self.dur,
            self.track[0],
            self.track[1],
            self.args,
        )

    @classmethod
    def from_tuple(cls, payload: Tuple) -> "Span":
        name, cat, ts, dur, process, thread, args = payload
        return cls(name, cat, ts, dur, (process, thread), args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        when = (
            f"@{self.ts:.3f}"
            if self.dur is None
            else f"[{self.ts:.3f}+{self.dur:.3f}]"
        )
        return f"<Span {self.cat}/{self.name} {when} {self.track}>"


class Tracer:
    """Records spans and telemetry for one traced session.

    Parameters
    ----------
    max_spans:
        Optional cap on retained spans; once reached, further spans are
        counted in :attr:`dropped_spans` instead of stored, bounding
        memory on very long runs.  ``None`` (default) keeps everything.
    """

    enabled = True

    #: Slots in the preallocated recording buffer.  Recording a span
    #: writes one raw tuple into the next slot; Span objects are only
    #: materialised when the buffer fills (one batch at a time) or when
    #: :attr:`spans` is read, so the per-span hot-path cost is a bounds
    #: check and a slot store.
    BUFFER_SLOTS = 1024

    def __init__(self, max_spans: Optional[int] = None):
        if max_spans is not None and max_spans <= 0:
            raise ValueError(f"max_spans must be positive, got {max_spans}")
        self.telemetry = MetricsRegistry()
        self.max_spans = max_spans
        self.dropped_spans = 0
        self._scopes: List[str] = []
        #: Materialised spans (everything drained from the buffer).
        self._materialized: List[Span] = []
        #: Preallocated ring of raw ``(name, cat, ts, dur, track,
        #: args)`` records; slots are reused after every drain.
        self._buffer: List[Optional[Tuple]] = [None] * self.BUFFER_SLOTS
        self._buffered = 0

    # -- recording ---------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Every recorded span, in recording order.

        Reading drains any staged raw records first, so the list is
        always complete and identical to what the pre-buffer tracer
        stored eagerly.  The returned list is the live store (exporters
        may append recovered spans to it).
        """
        if self._buffered:
            self._drain()
        return self._materialized

    def span(
        self,
        name: str,
        cat: str,
        ts: float,
        dur: float,
        track: Tuple[str, str],
        args: Optional[Dict] = None,
    ) -> None:
        """Record one completed interval on ``track``."""
        max_spans = self.max_spans
        if max_spans is not None and (
            len(self._materialized) + self._buffered >= max_spans
        ):
            self.dropped_spans += 1
            return
        if self._scopes:
            track = self._scoped(track)
        buffered = self._buffered
        self._buffer[buffered] = (name, cat, ts, dur, track, args)
        buffered += 1
        self._buffered = buffered
        if buffered == self.BUFFER_SLOTS:
            self._drain()

    def instant(
        self,
        name: str,
        ts: float,
        track: Tuple[str, str],
        args: Optional[Dict] = None,
    ) -> None:
        """Record a point annotation (rendered as an arrow/flag)."""
        self.span(name, "instant", ts, None, track, args)

    def _drain(self) -> None:
        """Materialise the staged batch and recycle the buffer slots."""
        buffer = self._buffer
        append = self._materialized.append
        for index in range(self._buffered):
            name, cat, ts, dur, track, args = buffer[index]
            append(Span(name, cat, ts, dur, track, args))
            buffer[index] = None
        self._buffered = 0

    def _store(self, span: Span) -> None:
        """Store an already-built :class:`Span` (merge/import path)."""
        if self.max_spans is not None and (
            len(self._materialized) + self._buffered >= self.max_spans
        ):
            self.dropped_spans += 1
            return
        if self._buffered:
            self._drain()
        self._materialized.append(span)

    # -- scoping -----------------------------------------------------------
    @contextmanager
    def scope(self, name: str) -> Iterator[None]:
        """Prefix the *process* of every span recorded inside.

        The trace driver wraps each simulation run in the run's label,
        so identically named drives from different runs (every HC-SD
        drive is called ``barracuda-es-…``) land on distinct Perfetto
        process rows.
        """
        self._scopes.append(name)
        try:
            yield
        finally:
            self._scopes.pop()

    def _scoped(self, track: Tuple[str, str]) -> Tuple[str, str]:
        if not self._scopes:
            return track
        prefix = "/".join(self._scopes)
        return (f"{prefix}/{track[0]}", track[1])

    # -- inspection --------------------------------------------------------
    def spans_by_category(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span.cat] = counts.get(span.cat, 0) + 1
        return counts

    def tracks(self) -> List[Tuple[str, str]]:
        """Distinct ``(process, thread)`` pairs, in first-seen order."""
        seen: Dict[Tuple[str, str], None] = {}
        for span in self.spans:
            seen.setdefault(span.track)
        return list(seen)

    # -- cross-process transport -------------------------------------------
    def payload(self) -> Dict:
        """Everything recorded, as picklable plain data."""
        return {
            "spans": [span.to_tuple() for span in self.spans],
            "telemetry": self.telemetry.snapshot(),
            "dropped_spans": self.dropped_spans,
        }

    def merge_payload(self, payload: Dict, id_offset: int = 0) -> None:
        """Fold a worker tracer's :meth:`payload` into this tracer.

        ``id_offset`` is added to every span's ``req`` argument: a
        sweep job draws request ids from 0, and the offset is the
        number of ids the merging session drew before that job.
        """
        for item in payload.get("spans", []):
            span = Span.from_tuple(item)
            args = span.args
            if id_offset and args and "req" in args:
                span.args = dict(args, req=args["req"] + id_offset)
            self._store(span)
        self.telemetry.merge_snapshot(payload["telemetry"])
        self.dropped_spans += payload.get("dropped_spans", 0)

    def clear(self) -> None:
        self._materialized.clear()
        self._buffer = [None] * self.BUFFER_SLOTS
        self._buffered = 0
        self.telemetry = MetricsRegistry()
        self.dropped_spans = 0


class NullTracer:
    """The zero-cost disabled tracer.

    Every recording method is a no-op and :attr:`enabled` is ``False``
    so instrumentation sites can skip argument construction entirely.
    Use the :data:`NULL_TRACER` singleton rather than instantiating.
    """

    enabled = False
    telemetry = NULL_METRICS
    spans: List[Span] = []
    dropped_spans = 0

    __slots__ = ()

    def span(self, name, cat, ts, dur, track, args=None) -> None:
        pass

    def instant(self, name, ts, track, args=None) -> None:
        pass

    @contextmanager
    def scope(self, name: str) -> Iterator[None]:
        yield

    def spans_by_category(self) -> Dict[str, int]:
        return {}

    def tracks(self) -> List[Tuple[str, str]]:
        return []

    def payload(self) -> Dict:
        telemetry = NULL_METRICS.snapshot()
        return {"spans": [], "telemetry": telemetry, "dropped_spans": 0}

    def merge_payload(self, payload: Dict, id_offset: int = 0) -> None:
        pass

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install a tracer in the run context for the duration of the
    block::

        with tracing() as tracer:
            run_limit_study(requests=500)
        write_chrome_trace(tracer, "trace.json")
    """
    from repro.obs.context import using

    with using(tracer=tracer if tracer is not None else Tracer()) as run:
        yield run.tracer
