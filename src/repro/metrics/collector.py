"""Per-request measurement collection.

A :class:`RequestCollector` subscribes to a drive's or array's
``on_complete`` hook and accumulates the distributions the paper
reports: response times (CDFs, percentiles), rotational latencies
(PDFs), seek times, and cache behaviour.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional

from repro.disk.request import IORequest
from repro.metrics.cdf import (
    RESPONSE_TIME_EDGES_MS,
    ROTATIONAL_LATENCY_EDGES_MS,
)
from repro.sim.stats import BucketHistogram, OnlineStats, percentile

__all__ = ["RequestCollector"]


class RequestCollector:
    """Accumulates per-request measurements from completion callbacks.

    Attach with ``drive.on_complete.append(collector)`` (the instance
    is callable) or pass completed requests to :meth:`record` manually.
    """

    def __init__(self, keep_samples: bool = True):
        self.keep_samples = keep_samples
        self.response_times: List[float] = []
        self.rotational_latencies: List[float] = []
        self.seek_times: List[float] = []
        self.response_stats = OnlineStats()
        self.rotational_stats = OnlineStats()
        self.seek_stats = OnlineStats()
        self.response_histogram = BucketHistogram(
            list(RESPONSE_TIME_EDGES_MS)
        )
        self.rotational_histogram = BucketHistogram(
            list(ROTATIONAL_LATENCY_EDGES_MS)
        )
        self.completed = 0
        self.cache_hits = 0
        self.reads = 0
        self.nonzero_seeks = 0

    def __call__(self, request: IORequest) -> None:
        self.record(request)

    def record(self, request: IORequest) -> None:
        # One record() per completed request is the collector's whole
        # hot path; the Welford and histogram updates are inlined with
        # the exact operation order of OnlineStats.add and
        # BucketHistogram.add so merged/streamed results stay
        # bit-identical to the method-call path.
        # ``request.response_time`` inlined (completion - arrival): the
        # property's not-yet-complete guard costs a frame per request
        # and completion hooks only ever see completed requests.
        response = request.completion_time - request.arrival_time
        self.completed += 1
        stats = self.response_stats
        stats.count = count = stats.count + 1
        stats.total += response
        delta = response - stats._mean
        stats._mean = mean = stats._mean + delta / count
        stats._m2 += delta * (response - mean)
        if response < stats.minimum:
            stats.minimum = response
        if response > stats.maximum:
            stats.maximum = response
        histogram = self.response_histogram
        histogram.counts[bisect_left(histogram.edges, response)] += 1
        histogram.total += 1
        if request.is_read:
            self.reads += 1
        if request.cache_hit:
            self.cache_hits += 1
        else:
            rotational = request.rotational_latency
            seek = request.seek_time
            stats = self.rotational_stats
            stats.count = count = stats.count + 1
            stats.total += rotational
            delta = rotational - stats._mean
            stats._mean = mean = stats._mean + delta / count
            stats._m2 += delta * (rotational - mean)
            if rotational < stats.minimum:
                stats.minimum = rotational
            if rotational > stats.maximum:
                stats.maximum = rotational
            histogram = self.rotational_histogram
            histogram.counts[bisect_left(histogram.edges, rotational)] += 1
            histogram.total += 1
            stats = self.seek_stats
            stats.count = count = stats.count + 1
            stats.total += seek
            delta = seek - stats._mean
            stats._mean = mean = stats._mean + delta / count
            stats._m2 += delta * (seek - mean)
            if seek < stats.minimum:
                stats.minimum = seek
            if seek > stats.maximum:
                stats.maximum = seek
            if seek > 0.0:
                self.nonzero_seeks += 1
            if self.keep_samples:
                self.rotational_latencies.append(rotational)
                self.seek_times.append(seek)
        if self.keep_samples:
            self.response_times.append(response)

    def fold(self, chunk: "RequestCollector") -> None:
        """Continue this collector over ``chunk``'s retained samples.

        ``chunk`` must keep samples.  Its completions are applied in
        their recorded order with the same sequential Welford and
        histogram updates as :meth:`record`, so folding every chunk of
        a run, in order, leaves this collector bit-identical to one
        that recorded each completion itself.  :meth:`merge`'s
        parallel Welford formula rounds differently and cannot stand
        in for it.
        """
        if not chunk.keep_samples:
            raise ValueError("fold needs a chunk that kept its samples")
        _fold_samples(
            self.response_stats,
            self.response_histogram,
            chunk.response_times,
        )
        _fold_samples(
            self.rotational_stats,
            self.rotational_histogram,
            chunk.rotational_latencies,
        )
        _fold_samples(self.seek_stats, None, chunk.seek_times)
        self.completed += chunk.completed
        self.cache_hits += chunk.cache_hits
        self.reads += chunk.reads
        self.nonzero_seeks += chunk.nonzero_seeks
        if self.keep_samples:
            self.response_times.extend(chunk.response_times)
            self.rotational_latencies.extend(chunk.rotational_latencies)
            self.seek_times.extend(chunk.seek_times)

    def merge(self, other: "RequestCollector") -> "RequestCollector":
        """Return a new collector combining this one and ``other``.

        Stats merge with the parallel Welford formula and histograms
        bucket-wise, so the result is what a single collector would
        have recorded over both request streams.  Samples concatenate
        only when *both* sides kept them; otherwise the merged
        collector has ``keep_samples=False`` and the same shape as any
        sample-free collector (histogram-backed summaries still work).
        Neither input is modified.
        """
        merged = RequestCollector(
            keep_samples=self.keep_samples and other.keep_samples
        )
        merged.response_stats = self.response_stats.merge(
            other.response_stats
        )
        merged.rotational_stats = self.rotational_stats.merge(
            other.rotational_stats
        )
        merged.seek_stats = self.seek_stats.merge(other.seek_stats)
        merged.response_histogram = self.response_histogram.merge(
            other.response_histogram
        )
        merged.rotational_histogram = self.rotational_histogram.merge(
            other.rotational_histogram
        )
        merged.completed = self.completed + other.completed
        merged.cache_hits = self.cache_hits + other.cache_hits
        merged.reads = self.reads + other.reads
        merged.nonzero_seeks = self.nonzero_seeks + other.nonzero_seeks
        if merged.keep_samples:
            merged.response_times = (
                self.response_times + other.response_times
            )
            merged.rotational_latencies = (
                self.rotational_latencies + other.rotational_latencies
            )
            merged.seek_times = self.seek_times + other.seek_times
        return merged

    # -- summaries --------------------------------------------------------
    def response_cdf(self) -> List[float]:
        """Cumulative fractions at the paper's response-time edges."""
        return self.response_histogram.cdf()

    def rotational_pdf(self) -> List[float]:
        """Probability mass at the paper's rotational-latency edges."""
        return self.rotational_histogram.pdf()

    def response_percentile(self, q: float) -> float:
        """Exact percentile (requires ``keep_samples=True``)."""
        if not self.keep_samples:
            raise ValueError("samples were not kept; cannot compute exactly")
        return percentile(self.response_times, q)

    @property
    def mean_response_ms(self) -> float:
        return self.response_stats.mean

    @property
    def mean_rotational_ms(self) -> float:
        return self.rotational_stats.mean

    @property
    def mean_seek_ms(self) -> float:
        return self.seek_stats.mean

    @property
    def nonzero_seek_fraction(self) -> float:
        media = self.completed - self.cache_hits
        return self.nonzero_seeks / media if media else 0.0

    def fraction_within(self, threshold_ms: float) -> float:
        """Fraction of responses at or below ``threshold_ms``.

        Works from retained samples when available, else from the
        histogram edge closest below the threshold.
        """
        if self.completed == 0:
            return 0.0
        if self.keep_samples:
            within = sum(
                1 for value in self.response_times if value <= threshold_ms
            )
            return within / len(self.response_times)
        cdf = self.response_histogram.cdf()
        best = 0.0
        for edge, value in zip(self.response_histogram.edges, cdf):
            if edge <= threshold_ms:
                best = value
        return best

    def summary(self) -> dict:
        summary = {
            "completed": self.completed,
            "mean_response_ms": self.mean_response_ms,
            "max_response_ms": (
                self.response_stats.maximum if self.completed else 0.0
            ),
            "mean_rotational_ms": self.mean_rotational_ms,
            "mean_seek_ms": self.mean_seek_ms,
            "cache_hit_fraction": (
                self.cache_hits / self.completed if self.completed else 0.0
            ),
        }
        if self.keep_samples and self.response_times:
            summary["p90_response_ms"] = self.response_percentile(90)
        return summary


def _fold_samples(
    stats: OnlineStats,
    histogram: Optional[BucketHistogram],
    samples: List[float],
) -> None:
    """:meth:`RequestCollector.record`'s per-sample updates of ``stats``
    (and ``histogram``), applied to ``samples`` in order."""
    count = stats.count
    total = stats.total
    mean = stats._mean
    m2 = stats._m2
    low = stats.minimum
    high = stats.maximum
    for value in samples:
        count += 1
        total += value
        delta = value - mean
        mean += delta / count
        m2 += delta * (value - mean)
        if value < low:
            low = value
        if value > high:
            high = value
    stats.count = count
    stats.total = total
    stats._mean = mean
    stats._m2 = m2
    stats.minimum = low
    stats.maximum = high
    if histogram is not None:
        counts = histogram.counts
        edges = histogram.edges
        for value in samples:
            counts[bisect_left(edges, value)] += 1
        histogram.total += len(samples)
