"""Seeded random-variate streams used by the workload generators.

Every stream owns an independent :class:`random.Random` instance so that
two streams created with different seeds are statistically independent
and every simulation is exactly reproducible from its seed.
"""

from __future__ import annotations

import math
import random
from typing import Optional

__all__ = [
    "BernoulliStream",
    "ExponentialStream",
    "NormalStream",
    "ParetoStream",
    "RandomStream",
    "UniformStream",
    "ZipfStream",
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

    def __iter__(self):
        while True:
            yield self.sample()


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


class NormalStream(RandomStream):
    """Normal variates, optionally truncated at a minimum value."""

    def __init__(
        self,
        mean: float,
        stddev: float,
        minimum: Optional[float] = None,
        seed: Optional[int] = None,
    ):
        if stddev < 0:
            raise ValueError(f"stddev must be non-negative, got {stddev}")
        super().__init__(seed)
        self.mean = mean
        self.stddev = stddev
        self.minimum = minimum

    def sample(self) -> float:
        value = self._rng.gauss(self.mean, self.stddev)
        if self.minimum is not None and value < self.minimum:
            value = self.minimum
        return value


class BernoulliStream(RandomStream):
    """True with probability ``p`` — used for read/write and sequential mixes."""

    def __init__(self, p: float, seed: Optional[int] = None):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        super().__init__(seed)
        self.p = p

    def sample(self) -> bool:
        return self._rng.random() < self.p


class ParetoStream(RandomStream):
    """Bounded Pareto variates (heavy-tailed burst sizes)."""

    def __init__(
        self,
        alpha: float,
        minimum: float,
        maximum: float = float("inf"),
        seed: Optional[int] = None,
    ):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if minimum <= 0:
            raise ValueError(f"minimum must be positive, got {minimum}")
        super().__init__(seed)
        self.alpha = alpha
        self.minimum = minimum
        self.maximum = maximum

    def sample(self) -> float:
        value = self.minimum * (1.0 - self._rng.random()) ** (-1.0 / self.alpha)
        return min(value, self.maximum)


class ZipfStream(RandomStream):
    """Zipf-distributed ranks over ``n`` items (hot-spot footprints).

    Uses the rejection-inversion method of Hörmann & Derflinger, which
    samples in O(1) without materialising the full rank distribution.
    """

    def __init__(self, n: int, theta: float = 0.99, seed: Optional[int] = None):
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if theta <= 0 or theta == 1.0:
            raise ValueError(f"theta must be positive and != 1, got {theta}")
        super().__init__(seed)
        self.n = n
        self.theta = theta
        self._q = 1.0 - theta
        self._h_x1 = self._h(1.5) - 1.0
        self._h_n = self._h(n + 0.5)
        self._s = 2.0 - self._h_inv(self._h(2.5) - 2.0 ** -theta)

    def _h(self, x: float) -> float:
        return (x ** self._q) / self._q

    def _h_inv(self, x: float) -> float:
        return (self._q * x) ** (1.0 / self._q)

    def sample_int(self) -> int:
        """A rank in ``[1, n]``; rank 1 is the hottest."""
        while True:
            u = self._h_n + self._rng.random() * (self._h_x1 - self._h_n)
            x = self._h_inv(u)
            k = math.floor(x + 0.5)
            if k - x <= self._s:
                return int(k)
            if u >= self._h(k + 0.5) - math.exp(-math.log(k) * self.theta):
                return int(k)

    def sample(self) -> float:
        return float(self.sample_int())
