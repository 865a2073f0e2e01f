"""Seeded random-variate streams used by the workload generators.

Every stream owns an independent :class:`random.Random` instance so that
two streams created with different seeds are statistically independent
and every simulation is exactly reproducible from its seed.
"""

from __future__ import annotations

import random
from typing import Optional

__all__ = [
    "BernoulliStream",
    "ExponentialStream",
    "RandomStream",
    "UniformStream",
]


class RandomStream:
    """Base class: a named, independently seeded source of variates."""

    def __init__(self, seed: Optional[int] = None):
        self._rng = random.Random(seed)
        self._seed = seed

    @property
    def seed(self) -> Optional[int]:
        return self._seed

    @property
    def rng(self) -> random.Random:
        """The stream's generator, for loops that bind its methods once."""
        return self._rng

    def sample(self) -> float:
        raise NotImplementedError


class ExponentialStream(RandomStream):
    """Exponentially distributed variates with the given *mean*.

    Models Poisson inter-arrival times, as used by the paper's synthetic
    workloads (means of 8, 4, and 1 ms).
    """

    def __init__(self, mean: float, seed: Optional[int] = None):
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        super().__init__(seed)
        self.mean = mean

    def sample(self) -> float:
        return self._rng.expovariate(1.0 / self.mean)


class UniformStream(RandomStream):
    """Uniform variates on ``[low, high)``."""

    def __init__(self, low: float, high: float, seed: Optional[int] = None):
        if high < low:
            raise ValueError(f"high ({high}) < low ({low})")
        super().__init__(seed)
        self.low = low
        self.high = high

    def sample(self) -> float:
        return self._rng.uniform(self.low, self.high)

    def sample_int(self) -> int:
        """A uniform integer in ``[low, high]`` (inclusive)."""
        return self._rng.randint(int(self.low), int(self.high))


class BernoulliStream(RandomStream):
    """True with probability ``p`` — used for read/write and sequential mixes."""

    def __init__(self, p: float, seed: Optional[int] = None):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        super().__init__(seed)
        self.p = p

    def sample(self) -> bool:
        return self._rng.random() < self.p
