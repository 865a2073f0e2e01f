"""The indexed on-board cache against the list-scan reference model.

``DiskCache`` finds segments by bisecting a start-sorted index, which
is exact only while no two segments overlap or touch.  These
properties drive random operation sequences over a small LBA span (so
installs overlap, touch and evict constantly) through both caches and
require identical behaviour at every step, plus the invariant itself.
"""

from hypothesis import example, given, settings, strategies as st

from repro.disk.cache import DiskCache
from tests.disk.reference_cache import ListScanCache

#: LBAs fall in ``[0, SPAN]`` and extents are short, so segments sit
#: densely: installs overlap, touch, or stop one sector short of a
#: neighbour all the time.
SPAN = 48

_extent = st.tuples(
    st.integers(min_value=0, max_value=SPAN),
    st.integers(min_value=1, max_value=12),
)
_install = st.one_of(
    st.tuples(
        st.just("install_read"),
        _extent,
        st.integers(min_value=0, max_value=16),
    ),
    st.tuples(st.just("install_write"), _extent),
)
_operation = st.one_of(
    _install,
    _install,
    st.tuples(st.just("lookup_read"), _extent),
    st.tuples(st.just("contains"), _extent),
    st.tuples(st.just("invalidate"), _extent),
    st.tuples(st.just("clear")),
)


def _apply(cache, operation):
    name = operation[0]
    if name == "clear":
        return cache.clear()
    lba, size = operation[1]
    if name == "install_read":
        return cache.install_read(lba, size, read_ahead_limit=operation[2])
    return getattr(cache, name)(lba, size)


def _assert_disjoint_and_apart(cache):
    """No two segments overlap, and an uncached sector separates any two."""
    runs = sorted(cache._lru.items())
    assert cache._starts == [start for start, _ in runs]
    for (_, end), (next_start, _) in zip(runs, runs[1:]):
        assert end < next_start


@settings(max_examples=300, deadline=None)
@given(
    segments=st.integers(min_value=1, max_value=16),
    segment_capacity=st.integers(min_value=1, max_value=24),
    cache_writes=st.booleans(),
    operations=st.lists(_operation, min_size=8, max_size=80),
)
# One uncached sector between two installs: they must stay apart.
@example(
    segments=4,
    segment_capacity=16,
    cache_writes=True,
    operations=[("install_write", (10, 5)), ("install_write", (16, 5))],
)
def test_indexed_cache_matches_list_scan(
    segments, segment_capacity, cache_writes, operations
):
    capacity = segments * segment_capacity
    cache = DiskCache(capacity, segments=segments, cache_writes=cache_writes)
    reference = ListScanCache(
        capacity, segments=segments, cache_writes=cache_writes
    )
    calls, reference_calls = [], []
    cache.listener = lambda *call: calls.append(call)
    reference.listener = lambda *call: reference_calls.append(call)
    for operation in operations:
        assert _apply(cache, operation) == _apply(reference, operation)
        assert list(cache._lru.items()) == reference._segments
        assert calls == reference_calls
        assert cache.stats == reference.stats
        assert len(cache) == len(reference)
        assert cache.cached_sectors == reference.cached_sectors
        _assert_disjoint_and_apart(cache)
