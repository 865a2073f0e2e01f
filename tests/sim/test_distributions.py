"""Tests for the seeded random-variate streams."""

import pytest

from repro.sim.distributions import (
    BernoulliStream,
    ExponentialStream,
    UniformStream,
)


def samples(stream, n=5000):
    return [stream.sample() for _ in range(n)]


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda seed: ExponentialStream(2.0, seed=seed),
            lambda seed: UniformStream(0, 10, seed=seed),
            lambda seed: BernoulliStream(0.3, seed=seed),
        ],
    )
    def test_same_seed_same_stream(self, factory):
        a = [factory(7).sample() for _ in range(100)]
        b = [factory(7).sample() for _ in range(100)]
        assert a == b

    def test_different_seeds_differ(self):
        a = samples(ExponentialStream(1.0, seed=1), 50)
        b = samples(ExponentialStream(1.0, seed=2), 50)
        assert a != b


class TestExponential:
    def test_mean_matches(self):
        data = samples(ExponentialStream(4.0, seed=3), 20000)
        assert sum(data) / len(data) == pytest.approx(4.0, rel=0.05)

    def test_all_positive(self):
        assert all(x >= 0 for x in samples(ExponentialStream(1.0, seed=4)))

    def test_invalid_mean(self):
        with pytest.raises(ValueError):
            ExponentialStream(0)


class TestUniform:
    def test_bounds_respected(self):
        data = samples(UniformStream(2, 8, seed=5))
        assert all(2 <= x < 8 for x in data)

    def test_sample_int_inclusive(self):
        stream = UniformStream(0, 3, seed=6)
        values = {stream.sample_int() for _ in range(500)}
        assert values == {0, 1, 2, 3}

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            UniformStream(5, 1)


class TestBernoulli:
    def test_probability_matches(self):
        stream = BernoulliStream(0.3, seed=9)
        hits = sum(stream.sample() for _ in range(20000))
        assert hits / 20000 == pytest.approx(0.3, abs=0.02)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_invalid_probability(self, p):
        with pytest.raises(ValueError):
            BernoulliStream(p)

    @pytest.mark.parametrize("p,expected", [(0.0, False), (1.0, True)])
    def test_degenerate_probabilities(self, p, expected):
        stream = BernoulliStream(p, seed=10)
        assert all(stream.sample() is expected for _ in range(100))
