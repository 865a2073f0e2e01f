"""Analytic cross-validation: the simulator vs M/G/1 queueing theory.

A single FCFS drive fed Poisson arrivals is approximately an M/G/1
queue (approximately, because successive service times are weakly
correlated through the head position).  The Pollaczek–Khinchine
formula then predicts the mean response time from the arrival rate and
the first two moments of the service time:

    E[R] = E[S] + λ·E[S²] / (2·(1 − ρ)),   ρ = λ·E[S]

:func:`validate_against_mg1` measures the service moments at very
light load, predicts the loaded response time, simulates it, and
reports both — the package's sanity check that its queueing behaviour
is trustworthy, used by the test suite with a tolerance band.

:func:`validate_fault_plan_file` is the input-side check: it
schema-validates a fault-plan JSON file (``repro faults --validate``
and the CI smoke job call it) without running any simulation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import List, Optional

from repro.disk.drive import ConventionalDrive
from repro.disk.request import IORequest
from repro.disk.scheduler import FCFSScheduler
from repro.disk.specs import DriveSpec
from repro.sim.engine import Environment

__all__ = [
    "Mg1Validation",
    "mg1_mean_response_ms",
    "validate_against_mg1",
    "validate_chaos_plan_file",
    "validate_fault_plan_file",
]


def _read_json(path: str):
    """``(payload, problems)`` for a JSON file; problems is non-empty
    (and payload ``None``) when the file cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle), []
    except OSError as error:
        return None, [f"{path}: {error}"]
    except (ValueError, RecursionError) as error:
        # ValueError covers malformed JSON, bytes that are not UTF-8
        # and integers past the interpreter's digit limit.
        return None, [f"{path}: invalid JSON: {error}"]


def validate_fault_plan_file(path: str) -> List[str]:
    """Schema-check a fault-plan JSON file; returns problem strings.

    An empty list means the file parses and every event passes
    :func:`repro.faults.plan.validate_fault_plan`.  I/O, encoding and
    JSON errors are reported as problems rather than raised, so
    callers can present every failure mode uniformly.
    """
    from repro.faults.plan import validate_fault_plan

    payload, problems = _read_json(path)
    return problems or validate_fault_plan(payload)


def validate_chaos_plan_file(path: str) -> List[str]:
    """Schema-check a chaos-plan JSON file; returns problem strings.

    The serve-stack counterpart of :func:`validate_fault_plan_file`
    (``repro chaos --validate`` calls it): an empty list means the
    file parses and passes
    :func:`repro.chaos.plan.validate_chaos_plan`.
    """
    from repro.chaos.plan import validate_chaos_plan

    payload, problems = _read_json(path)
    return problems or validate_chaos_plan(payload)


def mg1_mean_response_ms(
    arrival_rate_per_ms: float,
    service_mean_ms: float,
    service_second_moment: float,
) -> float:
    """Pollaczek–Khinchine mean response time.

    Raises ``ValueError`` when the queue is unstable (ρ ≥ 1).
    """
    if arrival_rate_per_ms <= 0:
        raise ValueError(
            f"arrival rate must be positive, got {arrival_rate_per_ms}"
        )
    if service_mean_ms <= 0:
        raise ValueError(
            f"service mean must be positive, got {service_mean_ms}"
        )
    utilisation = arrival_rate_per_ms * service_mean_ms
    if utilisation >= 1.0:
        raise ValueError(
            f"unstable queue: utilisation {utilisation:.3f} >= 1"
        )
    waiting = (
        arrival_rate_per_ms
        * service_second_moment
        / (2.0 * (1.0 - utilisation))
    )
    return service_mean_ms + waiting


@dataclass
class Mg1Validation:
    """Predicted vs simulated mean response for one operating point."""

    interarrival_ms: float
    service_mean_ms: float
    service_second_moment: float
    utilisation: float
    predicted_mean_ms: float
    simulated_mean_ms: float

    @property
    def relative_error(self) -> float:
        return (
            abs(self.simulated_mean_ms - self.predicted_mean_ms)
            / self.predicted_mean_ms
        )


def _random_requests(
    drive: ConventionalDrive,
    count: int,
    interarrival_ms: float,
    rng: random.Random,
):
    limit = drive.geometry.total_sectors - 16
    clock = 0.0
    for _ in range(count):
        clock += rng.expovariate(1.0 / interarrival_ms)
        yield IORequest(
            lba=rng.randrange(limit),
            size=8,
            is_read=False,
            arrival_time=clock,
        )


def _run(
    spec: DriveSpec, count: int, interarrival_ms: float, seed: int
):
    env = Environment()
    drive = ConventionalDrive(env, spec, scheduler=FCFSScheduler())
    done = []
    drive.on_complete.append(done.append)
    rng = random.Random(seed)
    requests = list(
        _random_requests(drive, count, interarrival_ms, rng)
    )

    def producer():
        for request in requests:
            delay = request.arrival_time - env.now
            if delay > 0:
                yield env.timeout(delay)
            drive.submit(request)

    env.process(producer())
    env.run()
    return done


def validate_against_mg1(
    spec: DriveSpec,
    interarrival_ms: float,
    requests: int = 3000,
    calibration_requests: int = 1500,
    seed: int = 7,
) -> Mg1Validation:
    """Measure service moments, predict via P-K, simulate, compare.

    The calibration run uses arrivals ~50× slower than the target so
    every request is served in isolation (pure service time, no
    queueing).
    """
    calibration = _run(
        spec, calibration_requests, interarrival_ms * 50.0, seed
    )
    services = [request.service_time for request in calibration]
    mean = sum(services) / len(services)
    second = sum(s * s for s in services) / len(services)

    predicted = mg1_mean_response_ms(
        1.0 / interarrival_ms, mean, second
    )
    loaded = _run(spec, requests, interarrival_ms, seed + 1)
    simulated = sum(r.response_time for r in loaded) / len(loaded)
    return Mg1Validation(
        interarrival_ms=interarrival_ms,
        service_mean_ms=mean,
        service_second_moment=second,
        utilisation=mean / interarrival_ms,
        predicted_mean_ms=predicted,
        simulated_mean_ms=simulated,
    )
