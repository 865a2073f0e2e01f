"""DiskSim-style synthetic workload generator.

Reproduces the generator configuration of the paper's §7.3: a Poisson
(exponential inter-arrival) open request stream in which 60 % of
requests are reads and 20 % of requests are sequential with their
predecessor, the remainder falling uniformly at random across the
storage footprint.  Inter-arrival means of 8, 4 and 1 ms model light,
moderate and heavy I/O loads.
"""

from __future__ import annotations

from typing import Optional

from repro.disk.request import new_request
from repro.sim.distributions import (
    BernoulliStream,
    ExponentialStream,
    UniformStream,
)
from repro.workloads.trace import Trace

__all__ = ["SyntheticWorkload"]


class SyntheticWorkload:
    """Parameterised synthetic request-stream generator.

    Parameters
    ----------
    capacity_sectors:
        Footprint of the target storage system; random requests fall
        uniformly in ``[0, capacity - max_size)``.
    mean_interarrival_ms:
        Mean of the exponential inter-arrival distribution.
    read_fraction:
        Probability a request is a read (paper: 0.6).
    sequential_fraction:
        Probability a request starts exactly where the previous one
        ended (paper: 0.2).
    request_size_sectors:
        Fixed request size (the paper's generator uses a constant
        size; 8 sectors = 4 KB is the classic OLTP value).
    footprint_fraction:
        Fraction of the capacity the random requests cover, starting
        from LBA 0 (the outer, fastest zones).  Server deployments
        commonly short-stroke drives — the paper's own motivation
        notes that "only a fraction of the space within a drive" is
        used to boost performance (§1) — and the arrays of §7.3 are
        far larger than any realistic dataset.
    seed:
        Base seed; all internal streams derive from it.
    """

    def __init__(
        self,
        capacity_sectors: int,
        mean_interarrival_ms: float,
        read_fraction: float = 0.6,
        sequential_fraction: float = 0.2,
        request_size_sectors: int = 8,
        footprint_fraction: float = 1.0,
        seed: Optional[int] = 42,
    ):
        if capacity_sectors <= request_size_sectors:
            raise ValueError(
                "capacity must exceed the request size "
                f"({capacity_sectors} <= {request_size_sectors})"
            )
        if request_size_sectors <= 0:
            raise ValueError(
                f"request size must be positive, got {request_size_sectors}"
            )
        if not 0.0 < footprint_fraction <= 1.0:
            raise ValueError(
                f"footprint_fraction must be in (0, 1], got "
                f"{footprint_fraction}"
            )
        self.capacity_sectors = capacity_sectors
        self.footprint_fraction = footprint_fraction
        footprint = max(
            request_size_sectors + 2,
            int(capacity_sectors * footprint_fraction),
        )
        self.footprint_sectors = min(footprint, capacity_sectors)
        self.mean_interarrival_ms = mean_interarrival_ms
        self.read_fraction = read_fraction
        self.sequential_fraction = sequential_fraction
        self.request_size_sectors = request_size_sectors
        self.seed = seed
        base = seed if seed is not None else 0
        self._interarrival = ExponentialStream(
            mean_interarrival_ms, seed=base
        )
        self._reads = BernoulliStream(read_fraction, seed=base + 1)
        self._sequential = BernoulliStream(
            sequential_fraction, seed=base + 2
        )
        self._location = UniformStream(
            0,
            self.footprint_sectors - request_size_sectors - 1,
            seed=base + 3,
        )

    def generate(self, count: int, name: Optional[str] = None) -> Trace:
        """Produce ``count`` requests as a :class:`Trace`.

        Stream-exact: the loop binds each stream's ``Random`` methods
        once, but makes the calls ``sample``/``sample_int`` would, in
        the same order: the inter-arrival and read draws on every
        request, the sequential draw only when the predecessor's end
        leaves room for a request, and the location draw only when the
        request is not sequential.  A second call continues the streams.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        interarrival = self._interarrival
        expovariate = interarrival.rng.expovariate
        rate = 1.0 / interarrival.mean
        sequential = self._sequential.rng.random
        p_sequential = self._sequential.p
        reads = self._reads.rng.random
        p_read = self._reads.p
        randint = self._location.rng.randint
        low = int(self._location.low)
        high = int(self._location.high)
        size = self.request_size_sectors
        limit = self.footprint_sectors - size
        requests = []
        append = requests.append
        clock = 0.0
        # The first request has no predecessor to continue.
        previous_end = limit + 1
        for _ in range(count):
            clock += expovariate(rate)
            if previous_end <= limit and sequential() < p_sequential:
                lba = previous_end
            else:
                lba = randint(low, high)
            append(new_request(lba, size, reads() < p_read, clock))
            previous_end = lba + size
        label = name or (
            f"synthetic-ia{self.mean_interarrival_ms:g}ms-{count}"
        )
        return Trace(requests, name=label)
