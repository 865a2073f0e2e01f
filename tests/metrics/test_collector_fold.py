"""Property tests: folding chunks equals recording one at a time.

A streamed replay with progress records each completion into a chunk
collector and folds every chunk into the run's collector.  Whatever
the chunk boundaries, the run's collector must equal, under ``==`` on
every field, one that recorded each completion itself.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.request import IORequest
from repro.metrics.collector import RequestCollector

_TIMES = st.floats(0.0, 5000.0, allow_nan=False, allow_infinity=False)


@st.composite
def completions(draw):
    """(arrival, completion, rotational, seek, cache_hit, is_read)."""
    arrival = draw(_TIMES)
    response = draw(_TIMES)
    seek = draw(st.one_of(st.just(0.0), _TIMES))
    return (
        arrival,
        arrival + response,
        draw(_TIMES),
        seek,
        draw(st.booleans()),
        draw(st.booleans()),
    )


def completed_request(values):
    arrival, completion, rotational, seek, cache_hit, is_read = values
    request = IORequest(lba=0, size=8, is_read=is_read, arrival_time=arrival)
    request.completion_time = completion
    request.rotational_latency = rotational
    request.seek_time = seek
    request.cache_hit = cache_hit
    return request


def state(collector):
    """Every field of ``collector``, nested stats and histograms opened."""
    fields = dict(vars(collector))
    for name in (
        "response_stats",
        "rotational_stats",
        "seek_stats",
        "response_histogram",
        "rotational_histogram",
    ):
        fields[name] = vars(fields[name])
    return fields


def chunked(items, cuts):
    bounds = [0] + sorted(cut % (len(items) + 1) for cut in cuts)
    bounds.append(len(items))
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=200, deadline=None)
@given(
    items=st.lists(completions(), max_size=120),
    cuts=st.lists(st.integers(0, 10**6), max_size=8),
    keep_samples=st.booleans(),
)
def test_fold_equals_sequential_record(items, cuts, keep_samples):
    requests = [completed_request(values) for values in items]
    direct = RequestCollector(keep_samples=keep_samples)
    for request in requests:
        direct.record(request)
    folded = RequestCollector(keep_samples=keep_samples)
    for part in chunked(requests, cuts):
        chunk = RequestCollector(keep_samples=True)
        for request in part:
            chunk.record(request)
        folded.fold(chunk)
    assert state(folded) == state(direct)


def test_fold_needs_chunk_samples():
    with pytest.raises(ValueError, match="kept its samples"):
        RequestCollector().fold(RequestCollector(keep_samples=False))
