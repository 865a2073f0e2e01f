"""Property tests: folding chunks equals recording one at a time.

A streamed replay with progress records each completion into a chunk
collector and folds every chunk into the run's collector.  Whatever
the chunk boundaries, the run's collector must equal, under ``==`` on
every public field, one that recorded each completion itself.  The
aggregates fold pending samples whenever they are read, so reading
them at any point must not change a later figure either.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.request import IORequest
from repro.metrics import collector as collector_module
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


#: A collector's public attributes: flags, samples and counters, then
#: the aggregates that fold pending samples when read.
_COUNTS_AND_SAMPLES = (
    "keep_samples",
    "response_times",
    "rotational_latencies",
    "seek_times",
    "completed",
    "cache_hits",
    "reads",
    "nonzero_seeks",
)
_AGGREGATES = (
    "response_stats",
    "rotational_stats",
    "seek_stats",
    "response_histogram",
    "rotational_histogram",
)


def state(collector):
    """The collector's public state, stats and histograms opened."""
    fields = {
        name: getattr(collector, name) for name in _COUNTS_AND_SAMPLES
    }
    for name in _AGGREGATES:
        fields[name] = dict(vars(getattr(collector, name)))
    return fields


def chunked(items, cuts):
    bounds = [0] + sorted(cut % (len(items) + 1) for cut in cuts)
    bounds.append(len(items))
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=200, deadline=None)
@given(
    items=st.lists(completions(), max_size=120),
    cuts=st.lists(st.integers(0, 10**6), max_size=8),
    reads=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(_AGGREGATES)),
        max_size=8,
    ),
    keep_samples=st.booleans(),
)
def test_fold_equals_sequential_record(items, cuts, reads, keep_samples):
    requests = [completed_request(values) for values in items]
    direct = RequestCollector(keep_samples=keep_samples)
    for request in requests:
        direct.record(request)
    # The same completions again, with aggregates read in between:
    # a read folds early and must not change any later figure.
    read_at = {}
    for position, name in reads:
        read_at.setdefault(position % (len(requests) + 1), []).append(name)
    observed = RequestCollector(keep_samples=keep_samples)
    for index, request in enumerate(requests):
        for name in read_at.get(index, ()):
            getattr(observed, name)
        observed.record(request)
    folded = RequestCollector(keep_samples=keep_samples)
    for part in chunked(requests, cuts):
        chunk = RequestCollector(keep_samples=True)
        for request in part:
            chunk.record(request)
        folded.fold(chunk)
    assert state(folded) == state(direct)
    assert state(observed) == state(direct)


def test_sample_free_collector_buffers_one_batch():
    collector = RequestCollector(keep_samples=False)
    reference = RequestCollector(keep_samples=True)
    batch = collector_module._FOLD_BATCH
    for index in range(2 * batch + 7):
        request = completed_request(
            (0.0, 1.0 + index % 97, 0.5, index % 3 * 1.5, index % 5 == 0,
             True)
        )
        collector.record(request)
        reference.record(request)
        assert len(collector._responses) <= batch
        assert len(collector._rotationals) <= batch
        assert len(collector._seeks) <= batch
    assert collector.response_times == []
    assert collector.rotational_latencies == []
    assert collector.seek_times == []
    expected = state(reference)
    for name in ("response_times", "rotational_latencies", "seek_times"):
        expected[name] = []
    expected["keep_samples"] = False
    assert state(collector) == expected
    assert collector._responses == []


def test_fold_needs_chunk_samples():
    with pytest.raises(ValueError, match="kept its samples"):
        RequestCollector().fold(RequestCollector(keep_samples=False))
