"""The run context: what a run records into and draws from.

Besides their environment, simulation components need a tracer, a
live metrics registry, the chaos failpoints and a source of request
ids.  All four live in one ambient :class:`RunContext`, read with
:func:`current` and replaced for a ``with`` block by :func:`using`::

    with using(request_ids=itertools.count()):
        trace = WEBSEARCH.generate(100)   # ids 0..99

The defaults are the zero-cost disabled collectors and one
process-wide id counter.  :func:`~repro.obs.tracer.tracing`,
:func:`~repro.obs.metrics.metrics_session` and
:func:`~repro.chaos.failpoints.failpoints_session` build their
collector and enter :func:`using`.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.chaos.failpoints import NULL_FAILPOINTS
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER

__all__ = ["RunContext", "current", "using"]


@dataclass(frozen=True)
class RunContext:
    """The ambient collectors of a run and its request-id source.

    ``tracer`` records spans and run telemetry, ``metrics`` is the
    live registry, ``failpoints`` the chaos facility of the serve
    stack, and ``request_ids`` the iterator every new
    :class:`~repro.disk.request.IORequest` takes its id from.
    """

    tracer: object = NULL_TRACER
    metrics: object = NULL_METRICS
    failpoints: object = NULL_FAILPOINTS
    request_ids: Iterator[int] = field(default_factory=itertools.count)


_current = RunContext()


def current() -> RunContext:
    """The ambient run context."""
    return _current


@contextmanager
def using(**fields) -> Iterator[RunContext]:
    """Install the current context with ``fields`` replaced for the
    ``with`` body, and restore the previous one on exit."""
    global _current
    previous = _current
    _current = replace(previous, **fields)
    try:
        yield _current
    finally:
        _current = previous
