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

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

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
        # LRU order, oldest first: each segment is a plain
        # ``(start, end)`` tuple.  The cache holds at most a few dozen
        # segments, so a list scan with inline tuple unpacks beats an
        # OrderedDict of objects on every hot operation.
        self._segments: List[Tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self._segments)

    @property
    def cached_sectors(self) -> int:
        return sum(end - start for start, end in self._segments)

    def lookup_read(self, lba: int, size: int) -> bool:
        """Check (and record) whether a read fully hits one segment."""
        end = lba + size
        segments = self._segments
        for index, segment in enumerate(segments):
            if segment[0] <= lba and end <= segment[1]:
                # Refresh LRU position (move to the newest end).
                del segments[index]
                segments.append(segment)
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
        end = lba + size
        for start, seg_end in self._segments:
            if start <= lba and end <= seg_end:
                return True
        return False

    def install_read(
        self, lba: int, size: int, read_ahead_limit: int = 0
    ) -> int:
        """Install a miss's data plus read-ahead; returns sectors cached.

        ``read_ahead_limit`` bounds the read-ahead (the drive passes the
        number of sectors remaining on the track, since free read-ahead
        ends at the track boundary).
        """
        read_ahead = self.segment_capacity - size
        if read_ahead > read_ahead_limit:
            read_ahead = read_ahead_limit
        if read_ahead < 0:
            read_ahead = 0
        end = lba + size + read_ahead
        start = lba
        if end - start > self.segment_capacity:
            # Keep the tail: sequential readers want the newest sectors.
            start = end - self.segment_capacity
        self._install(start, end)
        return end - start

    def install_write(self, lba: int, size: int) -> None:
        """Install written sectors (if write caching is enabled)."""
        if not self.cache_writes:
            return
        start = lba
        end = lba + size
        if end - start > self.segment_capacity:
            start = end - self.segment_capacity
        self._install(start, end)
        self.stats.write_installs += 1
        if self.listener is not None:
            self.listener("install_write", lba, size)

    def invalidate(self, lba: int, size: int) -> int:
        """Drop any segment overlapping ``[lba, lba+size)``.

        Used when write caching is disabled: a write must not leave a
        stale read segment behind.  Returns segments dropped.
        """
        end = lba + size
        segments = self._segments
        kept = [
            seg for seg in segments if not (seg[0] < end and lba < seg[1])
        ]
        dropped = len(segments) - len(kept)
        if dropped:
            self._segments = kept
            if self.listener is not None:
                self.listener("invalidate", lba, size)
        return dropped

    def _install(self, start: int, end: int) -> None:
        # Merge with any overlapping/adjacent segment (absorb it).  The
        # running [start, end) grows as absorptions are found, exactly
        # as the single-pass merge always has.
        segments = self._segments
        doomed = None
        for index, (seg_start, seg_end) in enumerate(segments):
            if seg_start <= end and start <= seg_end:
                if seg_start < start:
                    start = seg_start
                if seg_end > end:
                    end = seg_end
                if doomed is None:
                    doomed = [index]
                else:
                    doomed.append(index)
        if doomed is not None:
            for index in reversed(doomed):
                del segments[index]
        if end - start > self.segment_capacity:
            start = end - self.segment_capacity
        while len(segments) >= self.segment_count:
            del segments[0]  # evict LRU
        segments.append((start, end))

    def clear(self) -> None:
        del self._segments[:]
