"""On-board disk cache: segmented LRU with sequential read-ahead.

Drive caches are organised as a small number of *segments*, each
holding one contiguous run of sectors (typically the tail of a recent
sequential stream).  A read hits only if a single segment covers the
entire request.  On a miss the drive reads the requested sectors and
opportunistically extends the segment with read-ahead sectors from the
rest of the track.

The paper reports that growing the HC-SD cache from 8 MB to 64 MB has
negligible effect (§7.1); the cache-size ablation test reproduces
that experiment with this model.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

__all__ = ["CacheStats", "DiskCache"]


@dataclass
class CacheStats:
    """Hit/miss counters, split by request kind."""

    read_hits: int = 0
    read_misses: int = 0
    write_installs: int = 0

    @property
    def read_lookups(self) -> int:
        return self.read_hits + self.read_misses

    @property
    def hit_ratio(self) -> float:
        lookups = self.read_lookups
        return self.read_hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        """Snapshot for telemetry exports."""
        return {
            "read_hits": self.read_hits,
            "read_misses": self.read_misses,
            "write_installs": self.write_installs,
            "hit_ratio": self.hit_ratio,
        }


class DiskCache:
    """Segmented LRU cache over sector runs.

    Parameters
    ----------
    capacity_sectors:
        Total cache size in sectors (8 MB ⇒ 16384 sectors).
    segments:
        Number of segments the cache is divided into.  Each segment can
        hold at most ``capacity_sectors // segments`` sectors.
    cache_writes:
        If true, written sectors are installed so later reads hit
        (write data still goes to the media; the drive model always
        charges full media time for writes — write-through semantics).
    """

    def __init__(
        self,
        capacity_sectors: int,
        segments: int = 16,
        cache_writes: bool = True,
    ):
        if capacity_sectors <= 0:
            raise ValueError(
                f"capacity must be positive, got {capacity_sectors}"
            )
        if segments <= 0:
            raise ValueError(f"segments must be positive, got {segments}")
        if segments > capacity_sectors:
            raise ValueError(
                f"more segments ({segments}) than sectors "
                f"({capacity_sectors})"
            )
        self.capacity_sectors = capacity_sectors
        self.segment_count = segments
        self.segment_capacity = capacity_sectors // segments
        self.cache_writes = cache_writes
        self.stats = CacheStats()
        #: Optional observability hook: called with ``(kind, lba, size)``
        #: for ``"hit"`` / ``"miss"`` lookups and ``"install_write"`` /
        #: ``"invalidate"`` updates.  The owning drive wires this to the
        #: telemetry registry when tracing is enabled; the default
        #: ``None`` keeps the lookup path branch-cheap.
        self.listener: Optional[Callable[[str, int, int], None]] = None
        # Segments are half-open ``[start, end)`` sector runs.  Every
        # install absorbs each segment it overlaps or touches, so no two
        # segments overlap and at least one uncached sector lies between
        # any two.  Hence a start names its segment, at most one segment
        # holds a given sector (the one with the greatest start at or
        # below it), and the segments touching a range are a contiguous
        # run of the start-sorted order: every operation is a bisect.
        #: start -> end in LRU order, oldest first (insertion order).
        self._lru: Dict[int, int] = {}
        #: The same starts, sorted.
        self._starts: List[int] = []

    def __len__(self) -> int:
        return len(self._starts)

    @property
    def cached_sectors(self) -> int:
        return sum(end - start for start, end in self._lru.items())

    def lookup_read(self, lba: int, size: int) -> bool:
        """Check (and record) whether a read fully hits one segment."""
        starts = self._starts
        index = bisect_right(starts, lba)
        if index:
            start = starts[index - 1]
            lru = self._lru
            end = lru[start]
            if lba + size <= end:
                # Refresh LRU position (move to the newest end).
                del lru[start]
                lru[start] = end
                self.stats.read_hits += 1
                if self.listener is not None:
                    self.listener("hit", lba, size)
                return True
        self.stats.read_misses += 1
        if self.listener is not None:
            self.listener("miss", lba, size)
        return False

    def contains(self, lba: int, size: int) -> bool:
        """Like :meth:`lookup_read` but without touching statistics/LRU."""
        starts = self._starts
        index = bisect_right(starts, lba)
        if index:
            return lba + size <= self._lru[starts[index - 1]]
        return False

    def install_read(
        self, lba: int, size: int, read_ahead_limit: int = 0
    ) -> int:
        """Install a miss's data plus read-ahead; returns sectors cached.

        ``read_ahead_limit`` bounds the read-ahead (the drive passes the
        number of sectors remaining on the track, since free read-ahead
        ends at the track boundary).  The range merges with every
        segment it overlaps or touches; the merged segment becomes the
        newest, evicting the least recently used one when the cache is
        full.
        """
        capacity = self.segment_capacity
        read_ahead = capacity - size
        if read_ahead > read_ahead_limit:
            read_ahead = read_ahead_limit
        if read_ahead < 0:
            read_ahead = 0
        end = lba + size + read_ahead
        start = lba
        if end - start > capacity:
            # Keep the tail: sequential readers want the newest sectors.
            start = end - capacity
        cached = end - start
        starts = self._starts
        lru = self._lru
        # Segments starting at or before ``end`` whose end reaches
        # ``start`` touch the range; ends ascend with starts, so they
        # are the run just below ``high``.
        high = bisect_right(starts, end)
        low = high
        while low and lru[starts[low - 1]] >= start:
            low -= 1
        if low < high:
            first = starts[low]
            if first < start:
                start = first
            last_end = lru[starts[high - 1]]
            if last_end > end:
                end = last_end
            for absorbed in starts[low:high]:
                del lru[absorbed]
            del starts[low:high]
            if end - start > capacity:
                start = end - capacity
        while len(starts) >= self.segment_count:
            for oldest in lru:  # evict LRU: the first key
                break
            del lru[oldest]
            del starts[bisect_left(starts, oldest)]
        insort(starts, start)
        lru[start] = end
        return cached

    def install_write(self, lba: int, size: int) -> None:
        """Install written sectors (if write caching is enabled)."""
        if not self.cache_writes:
            return
        # A write caches exactly its own sectors: a read install with
        # no read-ahead.
        self.install_read(lba, size)
        self.stats.write_installs += 1
        if self.listener is not None:
            self.listener("install_write", lba, size)

    def invalidate(self, lba: int, size: int) -> int:
        """Drop any segment overlapping ``[lba, lba+size)``.

        Used when write caching is disabled: a write must not leave a
        stale read segment behind.  Returns segments dropped.
        """
        starts = self._starts
        lru = self._lru
        high = bisect_left(starts, lba + size)
        low = high
        while low and lru[starts[low - 1]] > lba:
            low -= 1
        dropped = high - low
        if dropped:
            for start in starts[low:high]:
                del lru[start]
            del starts[low:high]
            if self.listener is not None:
                self.listener("invalidate", lba, size)
        return dropped

    def clear(self) -> None:
        self._lru.clear()
        del self._starts[:]
