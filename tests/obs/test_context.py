"""The run context: one ambient object for a run's collectors and ids."""

import itertools

import pytest

from repro.chaos.failpoints import NULL_FAILPOINTS
from repro.obs.context import current, using
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER


def test_using_replaces_only_the_named_fields_and_restores():
    before = current()
    registry = MetricsRegistry()
    with pytest.raises(RuntimeError):
        with using(metrics=registry, request_ids=itertools.count(5)) as run:
            assert current() is run
            assert run.metrics is registry
            assert run.tracer is before.tracer is NULL_TRACER
            assert run.failpoints is before.failpoints is NULL_FAILPOINTS
            assert next(current().request_ids) == 5
            raise RuntimeError("boom")
    assert current() is before
    assert current().metrics is NULL_METRICS


def test_unknown_field_is_rejected():
    with pytest.raises(TypeError):
        with using(tracerr=None):
            pass
