"""Closed-form oracle: mean rotational latency under ``n`` arms.

With seeks switched off (``seek_scale=0``) every arm is always on the
target track, so a media access waits only for the target sector to
reach the nearest head.  Targets are uniform over the drive and
arrivals are Poisson with gaps of many revolutions, so the platter
phase at dispatch is uniform too, and:

* ``n`` arms mounted at equal spacing wait ``U[0, R·period/n)``, mean
  ``R·period/(2n)`` under ``rotation_scale`` R;
* ``n`` arms mounted at one angle wait like one arm, mean
  ``R·period/2``.

Each cell checks the simulated mean against the closed form within
four standard errors of a uniform mean.
"""

import math
import random

import pytest

from repro.core.parallel_disk import ParallelDisk
from repro.core.taxonomy import DashConfig
from repro.disk.drive import ConventionalDrive
from repro.disk.request import IORequest
from repro.disk.scheduler import FCFSScheduler
from repro.disk.specs import BARRACUDA_ES
from repro.sim.engine import Environment

REQUESTS = 4000
MEAN_GAP_MS = 200.0
SECTORS = 8
MAX_Z = 4.0
SCALES = (1.0, 0.5, 0.25)


def _build(env, arms, rotation_scale):
    options = dict(
        scheduler=FCFSScheduler(),
        seek_scale=0.0,
        rotation_scale=rotation_scale,
        cache_segments=1,
    )
    if arms == 1:
        return ConventionalDrive(env, BARRACUDA_ES, **options)
    return ParallelDisk(
        env, BARRACUDA_ES, config=DashConfig(arm_assemblies=arms), **options
    )


def _rotational_latencies(drive, seed=2008):
    env = drive.env
    rng = random.Random(seed)
    limit = drive.geometry.total_sectors - SECTORS
    clock = 0.0
    requests = []
    for _ in range(REQUESTS):
        clock += rng.expovariate(1.0 / MEAN_GAP_MS)
        requests.append(
            IORequest(
                lba=rng.randrange(limit),
                size=SECTORS,
                is_read=True,
                arrival_time=clock,
            )
        )

    def producer():
        for request in requests:
            yield env.timeout(request.arrival_time - env.now)
            drive.submit(request)

    env.process(producer())
    env.run()
    return [r.rotational_latency for r in requests if not r.cache_hit]


def _z(samples, width):
    """z-score of the sample mean against the mean of ``U[0, width)``."""
    standard_error = width / math.sqrt(12.0 * len(samples))
    return (sum(samples) / len(samples) - width / 2.0) / standard_error


@pytest.mark.parametrize("rotation_scale", SCALES)
@pytest.mark.parametrize("arms", [1, 2, 3, 4])
def test_equally_spaced_arms_divide_the_wait(arms, rotation_scale):
    drive = _build(Environment(), arms, rotation_scale)
    assert [arm.mount_angle for arm in drive.arms] == pytest.approx(
        [index / arms for index in range(arms)]
    )
    samples = _rotational_latencies(drive)
    assert len(samples) > 0.99 * REQUESTS
    width = rotation_scale * drive.spindle.period_ms / arms
    assert abs(_z(samples, width)) <= MAX_Z


@pytest.mark.parametrize("rotation_scale", SCALES)
@pytest.mark.parametrize("arms", [2, 4])
def test_co_located_arms_wait_like_one(arms, rotation_scale):
    drive = _build(Environment(), arms, rotation_scale)
    for arm in drive.arms:
        arm.mount_angle = 0.0
    samples = _rotational_latencies(drive)
    assert len(samples) > 0.99 * REQUESTS
    width = rotation_scale * drive.spindle.period_ms
    assert abs(_z(samples, width)) <= MAX_Z
