"""Trace analysis: arrival, mix, and locality characterisation.

Tools for inspecting a :class:`~repro.workloads.trace.Trace` the way a
storage study would before simulating it: arrival burstiness,
read/write mix, request-size distribution, spatial footprint and
hot-region concentration.  Used by the CLI's ``workloads`` view and by
the test suite to verify the commercial models carry the properties
the calibration claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.sim.stats import OnlineStats, percentile
from repro.workloads.trace import Trace

__all__ = ["TraceProfile", "profile_trace"]


@dataclass
class TraceProfile:
    """Computed characteristics of one trace."""

    name: str
    requests: int
    duration_ms: float
    mean_interarrival_ms: float
    #: Coefficient of variation of inter-arrival times (1 ≈ Poisson;
    #: >1 bursty).
    interarrival_cv: float
    read_fraction: float
    mean_size_sectors: float
    p90_size_sectors: float
    sequential_fraction: float
    #: Unique 1 MB-aligned regions touched, per source disk.
    footprint_mb_by_disk: Dict[int, int]
    #: Fraction of requests landing in the busiest 10 % of touched
    #: 1 MB regions (hot-region concentration).
    hot10_fraction: float

    def describe(self) -> str:
        """The profile as aligned ``key : value`` lines."""
        total_footprint = sum(self.footprint_mb_by_disk.values())
        return "\n".join([
            f"trace            : {self.name}",
            f"requests         : {self.requests}"
            f" over {self.duration_ms / 1000.0:.1f} s",
            f"inter-arrival    : {self.mean_interarrival_ms:.2f} ms "
            f"(CV {self.interarrival_cv:.2f})",
            f"mix              : {self.read_fraction:.0%} reads, "
            f"mean {self.mean_size_sectors:.0f} sectors "
            f"(p90 {self.p90_size_sectors:.0f})",
            f"sequentiality    : {self.sequential_fraction:.0%}",
            f"footprint        : {total_footprint} MB across "
            f"{len(self.footprint_mb_by_disk)} disk(s)",
            f"hot concentration: busiest 10% of regions take "
            f"{self.hot10_fraction:.0%} of requests",
        ])


_REGION_SECTORS = 2048  # 1 MB regions


def profile_trace(trace: Trace) -> TraceProfile:
    """Compute a :class:`TraceProfile` for ``trace`` (single pass plus
    a sort over the touched regions)."""
    if len(trace) == 0:
        raise ValueError("cannot profile an empty trace")

    interarrivals = OnlineStats()
    previous_time = None
    sizes: List[float] = []
    region_counts: Dict[tuple, int] = {}
    footprint: Dict[int, set] = {}
    for request in trace:
        if previous_time is not None:
            interarrivals.add(request.arrival_time - previous_time)
        previous_time = request.arrival_time
        sizes.append(request.size)
        region = (
            request.source_disk,
            request.lba // _REGION_SECTORS,
        )
        region_counts[region] = region_counts.get(region, 0) + 1
        footprint.setdefault(request.source_disk, set()).add(region[1])

    if interarrivals.count > 0 and interarrivals.mean > 0:
        cv = interarrivals.stddev / interarrivals.mean
    else:
        cv = 0.0

    counts = sorted(region_counts.values(), reverse=True)
    top = max(1, len(counts) // 10)
    hot10 = sum(counts[:top]) / len(trace)

    return TraceProfile(
        name=trace.name,
        requests=len(trace),
        duration_ms=trace.duration_ms,
        mean_interarrival_ms=trace.mean_interarrival_ms,
        interarrival_cv=cv,
        read_fraction=trace.read_fraction,
        mean_size_sectors=trace.mean_size_sectors,
        p90_size_sectors=percentile(sizes, 90),
        sequential_fraction=trace.sequential_fraction(),
        footprint_mb_by_disk={
            disk: len(regions) for disk, regions in footprint.items()
        },
        hot10_fraction=hot10,
    )
