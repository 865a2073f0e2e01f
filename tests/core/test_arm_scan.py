"""The one arm scan against a brute-force reference.

``ConventionalDrive._best_arm`` prices every eligible arm assembly,
skips the rotation of an arm whose seek alone cannot win, ranks by
``(seek + rotation, arm_id)`` and, in the same pass, finds the spare
arm :meth:`~repro.disk.drive.ConventionalDrive._preposition` shuttles:
the first farthest arm idle *now*, other than the winner.  The
reference below prices every arm in full and ranks with ``min`` and
``max``.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.parallel_disk import ParallelDisk
from repro.core.taxonomy import DashConfig
from repro.disk.scheduler import FCFSScheduler
from repro.sim.engine import Environment

_SCALES = st.sampled_from([0.0, 0.25, 0.5, 1.0])


def _reference(disk, cylinder, sector_angle, at_time, include_busy, now):
    """``(winner, seek, rotation, head, spare, spare_seek)`` by brute force."""
    priced = []
    for arm in disk.arms:
        if arm.failed or (not include_busy and at_time < arm.busy_until):
            continue
        seek = disk.seek_model.seek_time(arm.cylinder, cylinder)
        seek *= disk.seek_scale
        rotation, head = arm.best_head_latency(
            disk.spindle.latency_to, at_time + seek, sector_angle
        )
        rotation *= disk.rotation_scale
        priced.append((seek + rotation, arm.arm_id, arm, seek, rotation, head))
    if not priced:
        return None
    _, _, winner, seek, rotation, head = min(
        priced, key=lambda entry: (entry[0], entry[1])
    )
    idle = [
        arm
        for arm in disk.arms
        if arm is not winner and not arm.failed and now >= arm.busy_until
    ]
    # ``max`` keeps the first of equal keys: the lowest arm_id.
    spare = max(
        idle, key=lambda arm: abs(arm.cylinder - cylinder), default=None
    )
    spare_seek = None
    if spare is not None:
        spare_seek = (
            disk.seek_model.seek_time(spare.cylinder, cylinder)
            * disk.seek_scale
        )
    return winner, seek, rotation, head, spare, spare_seek


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_scan_matches_brute_force(tiny_spec, data):
    draw = data.draw
    actuators = draw(st.integers(min_value=1, max_value=4))
    heads = draw(st.integers(min_value=1, max_value=2))
    env = Environment()
    disk = ParallelDisk(
        env,
        tiny_spec,
        config=DashConfig(arm_assemblies=actuators, heads_per_arm=heads),
        scheduler=FCFSScheduler(),
        seek_scale=draw(_SCALES),
        rotation_scale=draw(_SCALES),
    )
    now = draw(st.floats(min_value=0.0, max_value=50.0))
    env.run(until=now)
    at_time = now + draw(st.sampled_from([0.0, 0.1, 1.5, 4.0]))
    last = disk.geometry.cylinders - 1
    cylinder = draw(st.integers(min_value=0, max_value=last))
    # Arms cluster around the target so equal distances (mirror
    # images, same cylinder) and equal totals are common.
    offsets = st.integers(min_value=-3, max_value=3) | st.integers(
        min_value=-last, max_value=last
    )
    moments = st.sampled_from(
        [0.0, now, (now + at_time) / 2, at_time, at_time + 1.0]
    )
    for arm in disk.arms:
        arm.cylinder = min(last, max(0, cylinder + draw(offsets)))
        arm.busy_until = draw(moments)
        arm.failed = draw(st.integers(min_value=0, max_value=4)) == 0
    sector_angle = draw(st.floats(min_value=0.0, max_value=1.0,
                                  exclude_max=True))
    include_busy = draw(st.booleans())

    expected = _reference(
        disk, cylinder, sector_angle, at_time, include_busy, now
    )
    if expected is None:
        with pytest.raises(RuntimeError):
            disk._best_arm(cylinder, sector_angle, at_time, include_busy)
        return
    winner, seek, rotation, head, spare, spare_seek = disk._best_arm(
        cylinder, sector_angle, at_time, include_busy
    )
    assert (winner, seek, rotation, head) == expected[:4]
    assert spare is expected[4]
    if spare is not None:
        assert spare_seek == expected[5]
