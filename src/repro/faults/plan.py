"""Seeded, deterministic fault plans.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent`
instants.  Plans come from two sources, freely mixed:

- *scheduled*: events written out explicitly (tests, regression
  scenarios, hand-built what-ifs);
- *generated*: :meth:`FaultPlan.generate` draws exponential
  inter-arrival times from a private ``random.Random(seed)`` with a
  fixed draw order, so a given ``(seed, rates, horizon)`` always
  yields the same event list — on every platform, in every worker
  process.

Plans serialise to a small JSON document (``{"version": 1, "events":
[...]}``) so they can be checked into CI, attached to bug reports, and
schema-validated by ``repro.tools.validate``.  The simulation side
never draws randomness: the *plan* is the randomness, fixed before the
run starts, which is what makes fault runs replayable bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "load_fault_plan",
    "validate_fault_plan",
    "write_fault_plan",
]

#: The recognised fault kinds, in the canonical generation order.
#:
#: - ``transient``: a media error recoverable by retry revolutions.
#: - ``latent``: a latent sector error; severity (``attempts``) is
#:   sized to exceed any sane retry budget, so the access surfaces as
#:   unrecovered and the robustness above the drive must cope.
#: - ``arm_failure``: an actuator assembly is deconfigured
#:   (:meth:`ParallelDisk.deconfigure_arm`); SPTF degrades to the
#:   survivors.
#: - ``drive_failure``: a member drive fails
#:   (:meth:`DiskArray.fail_drive`); redundant layouts enter degraded
#:   mode, non-redundant layouts abort outstanding requests.
#: - ``spare_arrival``: a hot spare becomes available; if the array is
#:   degraded, rebuild starts immediately.
FAULT_KINDS = (
    "transient",
    "latent",
    "arm_failure",
    "drive_failure",
    "spare_arrival",
)

#: Severity assigned to generated latent sector errors: enough failed
#: attempts that no per-revolution retry budget recovers the access.
LATENT_ATTEMPTS = 64


@dataclass(frozen=True)
class FaultEvent:
    """One fault instant in simulated time.

    ``drive`` indexes the target system's member list; ``arm`` is only
    meaningful for ``arm_failure``; ``lba``/``attempts`` only for the
    media-error kinds (``attempts`` is the number of failed read
    attempts the error costs before the retry budget is consulted).
    """

    time_ms: float
    kind: str
    drive: int = 0
    arm: Optional[int] = None
    lba: Optional[int] = None
    attempts: int = 1

    def __post_init__(self) -> None:
        problems = _validate_event(self.to_dict(), index=None)
        if problems:
            raise ValueError("; ".join(problems))

    def to_dict(self) -> Dict:
        payload: Dict = {"time_ms": self.time_ms, "kind": self.kind,
                         "drive": self.drive}
        if self.arm is not None:
            payload["arm"] = self.arm
        if self.lba is not None:
            payload["lba"] = self.lba
        if self.attempts != 1:
            payload["attempts"] = self.attempts
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultEvent":
        return cls(
            time_ms=float(payload["time_ms"]),
            kind=payload["kind"],
            drive=int(payload.get("drive", 0)),
            arm=payload.get("arm"),
            lba=payload.get("lba"),
            attempts=int(payload.get("attempts", 1)),
        )


def _validate_event(payload, index: Optional[int]) -> List[str]:
    where = "event" if index is None else f"events[{index}]"
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"{where}: expected an object, got {type(payload).__name__}"]
    kind = payload.get("kind")
    if kind not in FAULT_KINDS:
        problems.append(
            f"{where}: kind {kind!r} not one of {list(FAULT_KINDS)}"
        )
    time_ms = payload.get("time_ms")
    if not isinstance(time_ms, (int, float)) or isinstance(time_ms, bool):
        problems.append(f"{where}: time_ms must be a number")
    elif not _finite(time_ms) or time_ms < 0.0:
        problems.append(
            f"{where}: time_ms must be finite and >= 0, got {time_ms}"
        )
    drive = payload.get("drive", 0)
    if not isinstance(drive, int) or isinstance(drive, bool) or drive < 0:
        problems.append(f"{where}: drive must be an int >= 0, got {drive!r}")
    arm = payload.get("arm")
    if arm is not None and (
        not isinstance(arm, int) or isinstance(arm, bool) or arm < 0
    ):
        problems.append(f"{where}: arm must be an int >= 0 or null")
    if kind == "arm_failure" and arm is None:
        problems.append(f"{where}: arm_failure requires an arm index")
    lba = payload.get("lba")
    if lba is not None and (
        not isinstance(lba, int) or isinstance(lba, bool) or lba < 0
    ):
        problems.append(f"{where}: lba must be an int >= 0 or null")
    attempts = payload.get("attempts", 1)
    if (
        not isinstance(attempts, int)
        or isinstance(attempts, bool)
        or attempts < 1
    ):
        problems.append(
            f"{where}: attempts must be an int >= 1, got {attempts!r}"
        )
    unknown = set(payload) - {
        "time_ms", "kind", "drive", "arm", "lba", "attempts"
    }
    if unknown:
        problems.append(
            f"{where}: unknown fields {sorted(unknown, key=repr)}"
        )
    return problems


def _finite(value) -> bool:
    """``math.isfinite``, but False for an int beyond float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def validate_fault_plan(payload) -> List[str]:
    """Schema-check a fault-plan document; returns a problem list.

    An empty list means the payload is a valid plan.  Used by
    ``repro.tools.validate`` and the ``--validate`` CLI path.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"plan: expected an object, got {type(payload).__name__}"]
    version = payload.get("version")
    if version != 1:
        problems.append(f"plan: version must be 1, got {version!r}")
    events = payload.get("events")
    if not isinstance(events, list):
        problems.append("plan: events must be a list")
        return problems
    for index, event in enumerate(events):
        problems.extend(_validate_event(event, index))
    seed = payload.get("seed")
    if seed is not None and (not isinstance(seed, int)
                             or isinstance(seed, bool)):
        problems.append(f"plan: seed must be an int or null, got {seed!r}")
    unknown = set(payload) - {"version", "events", "seed"}
    if unknown:
        problems.append(f"plan: unknown fields {sorted(unknown, key=repr)}")
    return problems


class FaultPlan:
    """An ordered, replayable list of fault events.

    Events are stored sorted by ``(time_ms, original position)`` so
    replay order is total and independent of how the plan was
    assembled.  ``seed`` is metadata recording how a generated plan
    was drawn; it does not affect replay.
    """

    def __init__(self, events: Optional[List[FaultEvent]] = None,
                 seed: Optional[int] = None):
        events = list(events or [])
        indexed = sorted(
            enumerate(events), key=lambda pair: (pair[1].time_ms, pair[0])
        )
        self.events: List[FaultEvent] = [event for _, event in indexed]
        self.seed = seed

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.events == other.events

    def counts_by_kind(self) -> Dict[str, int]:
        counts = {kind: 0 for kind in FAULT_KINDS}
        for event in self.events:
            counts[event.kind] += 1
        return counts

    @classmethod
    def empty(cls) -> "FaultPlan":
        """The no-fault plan: replaying it changes nothing."""
        return cls([])

    @classmethod
    def generate(
        cls,
        seed: int,
        horizon_ms: float,
        drives: int = 1,
        arms_per_drive: int = 1,
        capacity_sectors: Optional[int] = None,
        transient_mtbf_ms: Optional[float] = None,
        latent_mtbf_ms: Optional[float] = None,
        arm_mtbf_ms: Optional[float] = None,
        drive_mtbf_ms: Optional[float] = None,
        spare_delay_ms: float = 0.0,
        max_error_attempts: int = 2,
    ) -> "FaultPlan":
        """Draw a stochastic plan with a fixed, documented draw order.

        For each enabled kind (an ``*_mtbf_ms`` of ``None`` disables
        it), exponential inter-arrival times are drawn per target in a
        fixed nesting order — kind, then drive, then arm — so the
        event list is a pure function of the arguments.  At most one
        ``drive_failure`` is generated (a second failure of a RAID-5
        array loses data and the primitives reject it); its hot spare
        arrives ``spare_delay_ms`` later when that is positive.
        ``capacity_sectors`` makes media errors target concrete
        sectors; without it they hit the next access wherever it
        lands.
        """
        import random

        if horizon_ms <= 0.0:
            raise ValueError(f"horizon_ms must be positive, got {horizon_ms}")
        if drives < 1 or arms_per_drive < 1:
            raise ValueError("drives and arms_per_drive must be >= 1")
        if max_error_attempts < 1:
            raise ValueError("max_error_attempts must be >= 1")
        rng = random.Random(seed)
        events: List[FaultEvent] = []

        def arrivals(mtbf_ms: float):
            at = rng.expovariate(1.0 / mtbf_ms)
            while at < horizon_ms:
                yield at
                at += rng.expovariate(1.0 / mtbf_ms)

        if transient_mtbf_ms is not None:
            for drive in range(drives):
                for at in arrivals(transient_mtbf_ms):
                    lba = (
                        rng.randrange(capacity_sectors)
                        if capacity_sectors
                        else None
                    )
                    events.append(FaultEvent(
                        time_ms=at,
                        kind="transient",
                        drive=drive,
                        lba=lba,
                        attempts=rng.randint(1, max_error_attempts),
                    ))
        if latent_mtbf_ms is not None:
            for drive in range(drives):
                for at in arrivals(latent_mtbf_ms):
                    lba = (
                        rng.randrange(capacity_sectors)
                        if capacity_sectors
                        else None
                    )
                    events.append(FaultEvent(
                        time_ms=at,
                        kind="latent",
                        drive=drive,
                        lba=lba,
                        attempts=LATENT_ATTEMPTS,
                    ))
        if arm_mtbf_ms is not None:
            for drive in range(drives):
                for arm in range(arms_per_drive):
                    for at in arrivals(arm_mtbf_ms):
                        events.append(FaultEvent(
                            time_ms=at,
                            kind="arm_failure",
                            drive=drive,
                            arm=arm,
                        ))
        if drive_mtbf_ms is not None:
            candidates = []
            for drive in range(drives):
                at = rng.expovariate(1.0 / drive_mtbf_ms)
                if at < horizon_ms:
                    candidates.append((at, drive))
            if candidates:
                at, drive = min(candidates)
                events.append(FaultEvent(
                    time_ms=at, kind="drive_failure", drive=drive
                ))
                if spare_delay_ms > 0.0:
                    events.append(FaultEvent(
                        time_ms=at + spare_delay_ms,
                        kind="spare_arrival",
                        drive=drive,
                    ))
        return cls(events, seed=seed)

    # -- serialisation ------------------------------------------------------
    def to_dict(self) -> Dict:
        payload: Dict = {
            "version": 1,
            "events": [event.to_dict() for event in self.events],
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultPlan":
        problems = validate_fault_plan(payload)
        if problems:
            raise ValueError(
                "invalid fault plan: " + "; ".join(problems)
            )
        return cls(
            [FaultEvent.from_dict(event) for event in payload["events"]],
            seed=payload.get("seed"),
        )


def write_fault_plan(plan: FaultPlan, path: str) -> str:
    """Serialise ``plan`` to ``path`` as canonical JSON."""
    with open(path, "w", encoding="ascii") as handle:
        json.dump(plan.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_fault_plan(path: str) -> FaultPlan:
    """Load and validate a fault plan from a JSON file.

    Raises ``OSError`` when the file cannot be read and ``ValueError``
    for anything wrong with its contents.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return FaultPlan.from_dict(payload)
