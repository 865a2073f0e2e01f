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


#: Records a ``keep_samples=False`` collector buffers between folds.
_FOLD_BATCH = 4096


class RequestCollector:
    """Accumulates per-request measurements from completion callbacks.

    Attach with ``drive.on_complete.append(collector)`` (the instance
    is callable) or pass completed requests to :meth:`record` manually.

    :meth:`record` only appends samples and bumps counters; the stats
    and histograms fold the samples not yet folded, in order, whenever
    one of them is read, so when they are read never changes a figure.
    """

    def __init__(self, keep_samples: bool = True):
        self.keep_samples = keep_samples
        self.response_times: List[float] = []
        self.rotational_latencies: List[float] = []
        self.seek_times: List[float] = []
        # record() appends to the sample lists, or without keep_samples
        # to buffers that every fold empties.
        self._responses = self.response_times if keep_samples else []
        self._rotationals = self.rotational_latencies if keep_samples else []
        self._seeks = self.seek_times if keep_samples else []
        # Leading response and media samples the aggregates hold.
        self._folded = self._folded_media = 0
        self._response_stats = OnlineStats()
        self._rotational_stats = OnlineStats()
        self._seek_stats = OnlineStats()
        self._response_histogram = BucketHistogram(
            list(RESPONSE_TIME_EDGES_MS)
        )
        self._rotational_histogram = BucketHistogram(
            list(ROTATIONAL_LATENCY_EDGES_MS)
        )
        self.completed = 0
        self.cache_hits = 0
        self.reads = 0
        self.nonzero_seeks = 0

    def __call__(self, request: IORequest) -> None:
        self.record(request)

    def record(self, request: IORequest) -> None:
        # ``request.response_time`` inlined (completion - arrival): the
        # property's not-yet-complete guard costs a frame per request
        # and completion hooks only ever see completed requests.
        responses = self._responses
        responses.append(request.completion_time - request.arrival_time)
        self.completed += 1
        if request.is_read:
            self.reads += 1
        if request.cache_hit:
            self.cache_hits += 1
        else:
            seek = request.seek_time
            self._rotationals.append(request.rotational_latency)
            self._seeks.append(seek)
            if seek > 0.0:
                self.nonzero_seeks += 1
        if not self.keep_samples and len(responses) >= _FOLD_BATCH:
            self._catch_up()

    def _catch_up(self) -> None:
        """Fold the samples recorded since the last fold, in order."""
        done, media = self._folded, self._folded_media
        if done == len(self._responses):
            return
        # A slice is a copy: fold whole lists from their start in place.
        responses = self._responses[done:] if done else self._responses
        rotationals = self._rotationals
        seeks = self._seeks
        if media:
            rotationals, seeks = rotationals[media:], seeks[media:]
        _fold_samples(
            self._response_stats, self._response_histogram, responses
        )
        _fold_samples(
            self._rotational_stats, self._rotational_histogram, rotationals
        )
        _fold_samples(self._seek_stats, None, seeks)
        if self.keep_samples:
            self._folded += len(responses)
            self._folded_media += len(seeks)
        else:
            for buffer in (self._responses, self._rotationals, self._seeks):
                buffer.clear()

    @property
    def response_stats(self) -> OnlineStats:
        self._catch_up()
        return self._response_stats

    @property
    def rotational_stats(self) -> OnlineStats:
        self._catch_up()
        return self._rotational_stats

    @property
    def seek_stats(self) -> OnlineStats:
        self._catch_up()
        return self._seek_stats

    @property
    def response_histogram(self) -> BucketHistogram:
        self._catch_up()
        return self._response_histogram

    @property
    def rotational_histogram(self) -> BucketHistogram:
        self._catch_up()
        return self._rotational_histogram

    def fold(self, chunk: "RequestCollector") -> None:
        """Continue this collector over ``chunk``'s retained samples.

        ``chunk`` must keep samples.  Its completions join this
        collector's in their recorded order and fold like recorded
        ones, so folding every chunk of a run, in order, leaves this
        collector bit-identical to one that recorded each completion
        itself.  :meth:`merge`'s parallel Welford formula rounds
        differently and cannot stand in for it.
        """
        if not chunk.keep_samples:
            raise ValueError("fold needs a chunk that kept its samples")
        self._responses.extend(chunk.response_times)
        self._rotationals.extend(chunk.rotational_latencies)
        self._seeks.extend(chunk.seek_times)
        self.completed += chunk.completed
        self.cache_hits += chunk.cache_hits
        self.reads += chunk.reads
        self.nonzero_seeks += chunk.nonzero_seeks
        if not self.keep_samples:
            self._catch_up()

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
        merged._response_stats = self.response_stats.merge(
            other.response_stats
        )
        merged._rotational_stats = self.rotational_stats.merge(
            other.rotational_stats
        )
        merged._seek_stats = self.seek_stats.merge(other.seek_stats)
        merged._response_histogram = self.response_histogram.merge(
            other.response_histogram
        )
        merged._rotational_histogram = self.rotational_histogram.merge(
            other.rotational_histogram
        )
        merged.completed = self.completed + other.completed
        merged.cache_hits = self.cache_hits + other.cache_hits
        merged.reads = self.reads + other.reads
        merged.nonzero_seeks = self.nonzero_seeks + other.nonzero_seeks
        if merged.keep_samples:
            for side in (self, other):
                merged.response_times.extend(side.response_times)
                merged.rotational_latencies.extend(
                    side.rotational_latencies
                )
                merged.seek_times.extend(side.seek_times)
            merged._folded = len(merged.response_times)
            merged._folded_media = len(merged.seek_times)
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
    """:meth:`OnlineStats.add <repro.sim.stats.OnlineStats.add>` on
    ``stats`` (and :meth:`BucketHistogram.add` on ``histogram``) for
    each of ``samples`` in order, as one tight loop."""
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
