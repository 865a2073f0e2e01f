"""Online statistics collectors used by the metrics layer.

All collectors are single-pass and O(1)-per-sample except the exact
percentile helpers, which retain samples (response-time sets in this
package are modest — at most a few hundred thousand floats).
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, List, Sequence

__all__ = ["BucketHistogram", "OnlineStats", "percentile"]


def percentile(samples: Sequence[float], q: float) -> float:
    """Exact percentile (linear interpolation) of ``samples``.

    ``q`` is in ``[0, 100]``.  Raises ``ValueError`` on an empty input.
    """
    if not samples:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    data = sorted(samples)
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return data[low]
    frac = rank - low
    # data[low] + frac * delta is exact when both endpoints are equal,
    # unlike the (1-frac)·a + frac·b form, which can drift by one ulp.
    return data[low] + frac * (data[high] - data[low])


class OnlineStats:
    """Welford-style running mean/variance plus min/max/sum."""

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Combine two collectors (parallel Welford merge)."""
        merged = OnlineStats()
        n = self.count + other.count
        if n == 0:
            return merged
        delta = other.mean - self.mean
        merged.count = n
        merged._mean = self.mean + delta * other.count / n
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / n
        )
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        merged.total = self.total + other.total
        return merged


class BucketHistogram:
    """Histogram over explicit bucket edges, plus an overflow bucket.

    ``edges = [5, 10, 20]`` yields buckets ``<=5``, ``(5,10]``,
    ``(10,20]``, and ``>20`` — the shape used by the paper's CDF/PDF
    figures (e.g. response-time edges 5..200 with a ``200+`` bucket).
    """

    def __init__(self, edges: Sequence[float]):
        if not edges:
            raise ValueError("at least one bucket edge required")
        if list(edges) != sorted(edges):
            raise ValueError(f"edges must be sorted, got {list(edges)}")
        if len(set(edges)) != len(edges):
            raise ValueError(f"edges must be unique, got {list(edges)}")
        self.edges: List[float] = list(edges)
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.total = 0

    def add(self, value: float) -> None:
        index = bisect.bisect_left(self.edges, value)
        self.counts[index] += 1
        self.total += 1

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def labels(self) -> List[str]:
        labels = [f"{edge:g}" for edge in self.edges]
        labels.append(f"{self.edges[-1]:g}+")
        return labels

    def pdf(self) -> List[float]:
        """Fraction of samples in each bucket."""
        if self.total == 0:
            return [0.0] * len(self.counts)
        return [count / self.total for count in self.counts]

    def cdf(self) -> List[float]:
        """Cumulative fraction at each bucket (last value is 1.0)."""
        values = []
        running = 0
        for count in self.counts:
            running += count
            values.append(running / self.total if self.total else 0.0)
        return values

    def merge(self, other: "BucketHistogram") -> "BucketHistogram":
        if self.edges != other.edges:
            raise ValueError("cannot merge histograms with different edges")
        merged = BucketHistogram(self.edges)
        merged.counts = [a + b for a, b in zip(self.counts, other.counts)]
        merged.total = self.total + other.total
        return merged
