"""The list-scan segmented cache: a reference model for ``DiskCache``.

This is the on-board cache as it was before the segments gained a
start-sorted index: one list of ``(start, end)`` tuples in LRU order,
scanned front to back by every operation.  It is slow but obviously
faithful to the segmented-LRU description, so the indexed
:class:`repro.disk.cache.DiskCache` is checked against it operation
for operation (``test_cache_index.py``).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.disk.cache import CacheStats

__all__ = ["ListScanCache"]


class ListScanCache:
    """Segmented LRU cache over sector runs, one list scan per call."""

    def __init__(
        self,
        capacity_sectors: int,
        segments: int = 16,
        cache_writes: bool = True,
    ):
        self.capacity_sectors = capacity_sectors
        self.segment_count = segments
        self.segment_capacity = capacity_sectors // segments
        self.cache_writes = cache_writes
        self.stats = CacheStats()
        self.listener: Optional[Callable[[str, int, int], None]] = None
        #: LRU order, oldest first.
        self._segments: List[Tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self._segments)

    @property
    def cached_sectors(self) -> int:
        return sum(end - start for start, end in self._segments)

    def lookup_read(self, lba: int, size: int) -> bool:
        end = lba + size
        segments = self._segments
        for index, segment in enumerate(segments):
            if segment[0] <= lba and end <= segment[1]:
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
        end = lba + size
        for start, seg_end in self._segments:
            if start <= lba and end <= seg_end:
                return True
        return False

    def install_read(
        self, lba: int, size: int, read_ahead_limit: int = 0
    ) -> int:
        read_ahead = self.segment_capacity - size
        if read_ahead > read_ahead_limit:
            read_ahead = read_ahead_limit
        if read_ahead < 0:
            read_ahead = 0
        end = lba + size + read_ahead
        start = lba
        if end - start > self.segment_capacity:
            start = end - self.segment_capacity
        self._install(start, end)
        return end - start

    def install_write(self, lba: int, size: int) -> None:
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
        # Absorb every overlapping or adjacent segment; the running
        # [start, end) grows as absorptions are found.
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
