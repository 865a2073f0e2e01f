"""Seeded, deterministic chaos plans for the serve stack.

A :class:`ChaosPlan` is an ordered list of :class:`ChaosEvent`
injections, each naming a failpoint site (see
:data:`repro.chaos.failpoints.FAILPOINT_SITES`), a fault kind, and
the *occurrence* of that site at which it fires (the N-th time a
process reaches the site).  Plans follow the same discipline as
:mod:`repro.faults.plan`: they come from explicit construction
(tests, regression scenarios) or from :meth:`ChaosPlan.generate`,
which draws from a private ``random.Random(seed)`` in a fixed,
documented order so a given ``(seed, scenarios, workers, lease_s)``
always yields the same event list; they serialise to a small
versioned JSON document that round-trips exactly and is
schema-validated by ``repro chaos --validate`` /
:func:`repro.tools.validate.validate_chaos_plan_file`.

The campaign side never draws randomness: the *plan* is the
randomness, fixed before any worker starts, which is what makes chaos
campaigns replayable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.chaos.failpoints import FAILPOINT_SITES

__all__ = [
    "CHAOS_KINDS",
    "KIND_SITES",
    "SCENARIO_ALIASES",
    "ChaosEvent",
    "ChaosPlan",
    "load_chaos_plan",
    "validate_chaos_plan",
    "write_chaos_plan",
]

#: The recognised chaos kinds, in the canonical generation order.
#:
#: - ``worker_kill``: the worker process dies instantly at the site
#:   (``os._exit`` — no cleanup, no ack, the lease is left behind).
#: - ``torn_write``: the file just renamed into place is truncated at
#:   byte ``truncate_at``, modelling power loss after a durable rename
#:   but before the data blocks hit the platter.
#: - ``enospc``: the site raises ``OSError(ENOSPC)``, modelling a full
#:   disk at the worst moment.
#: - ``clock_skew``: the process's lease clock reads ``skew_s``
#:   seconds ahead once the site's occurrence threshold is reached,
#:   modelling wall-clock skew between workers (premature lease-expiry
#:   requeues, double execution).
#: - ``hang``: the worker stalls ``hang_s`` seconds at the site,
#:   modelling a wedged process whose lease expires under it.
CHAOS_KINDS = (
    "worker_kill",
    "torn_write",
    "enospc",
    "clock_skew",
    "hang",
)

#: The failpoint sites each kind may target.  ``torn_write`` needs a
#: site that passes a written-file path; ``enospc`` models the write
#: failing, so it fires before the replace; kill/hang target
#: worker-side execution points.
KIND_SITES: Dict[str, Sequence[str]] = {
    "worker_kill": (
        "queue.lease.after_create",
        "queue.claim.after_rename",
        "queue.ack.before_rename",
        "queue.ack.after_rename",
        "service.job.before_run",
        "service.job.before_ack",
    ),
    "torn_write": (
        "queue.record.after_replace",
        "cache.put.after_replace",
    ),
    "enospc": (
        "queue.record.before_replace",
        "cache.put.before_replace",
    ),
    "clock_skew": ("queue.clock",),
    "hang": (
        "service.job.before_run",
        "service.job.before_ack",
    ),
}

#: CLI spellings (``repro chaos --scenarios kill,torn-write``) for the
#: canonical kind names.
SCENARIO_ALIASES = {
    "kill": "worker_kill",
    "worker-kill": "worker_kill",
    "torn-write": "torn_write",
    "enospc": "enospc",
    "clock-skew": "clock_skew",
    "hang": "hang",
}


@dataclass(frozen=True)
class ChaosEvent:
    """One injection: fire ``kind`` at the ``occurrence``-th hit of
    ``site`` (counted per process).

    ``worker`` restricts the event to the serve worker with that
    owner name (``None`` = any bound worker; client processes are
    never killed or hung regardless).  ``truncate_at`` is required
    for ``torn_write``, ``skew_s`` for ``clock_skew``, ``hang_s``
    for ``hang``.
    """

    site: str
    kind: str
    occurrence: int = 1
    worker: Optional[str] = None
    truncate_at: Optional[int] = None
    skew_s: Optional[float] = None
    hang_s: Optional[float] = None

    def __post_init__(self) -> None:
        problems = _validate_event(self.to_dict(), index=None)
        if problems:
            raise ValueError("; ".join(problems))

    def to_dict(self) -> Dict:
        payload: Dict = {"site": self.site, "kind": self.kind,
                         "occurrence": self.occurrence}
        if self.worker is not None:
            payload["worker"] = self.worker
        if self.truncate_at is not None:
            payload["truncate_at"] = self.truncate_at
        if self.skew_s is not None:
            payload["skew_s"] = self.skew_s
        if self.hang_s is not None:
            payload["hang_s"] = self.hang_s
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "ChaosEvent":
        return cls(
            site=payload["site"],
            kind=payload["kind"],
            occurrence=int(payload.get("occurrence", 1)),
            worker=payload.get("worker"),
            truncate_at=payload.get("truncate_at"),
            skew_s=payload.get("skew_s"),
            hang_s=payload.get("hang_s"),
        )


def _validate_event(payload, index: Optional[int]) -> List[str]:
    where = "event" if index is None else f"events[{index}]"
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"{where}: expected an object, got {type(payload).__name__}"]
    kind = payload.get("kind")
    if kind not in CHAOS_KINDS:
        problems.append(
            f"{where}: kind {kind!r} not one of {list(CHAOS_KINDS)}"
        )
    site = payload.get("site")
    if site not in FAILPOINT_SITES:
        problems.append(
            f"{where}: site {site!r} is not a known failpoint site"
        )
    elif kind in CHAOS_KINDS and site not in KIND_SITES[kind]:
        problems.append(
            f"{where}: kind {kind!r} cannot target site {site!r} "
            f"(eligible: {list(KIND_SITES[kind])})"
        )
    occurrence = payload.get("occurrence", 1)
    if (
        not isinstance(occurrence, int)
        or isinstance(occurrence, bool)
        or occurrence < 1
    ):
        problems.append(
            f"{where}: occurrence must be an int >= 1, got {occurrence!r}"
        )
    worker = payload.get("worker")
    if worker is not None and not isinstance(worker, str):
        problems.append(f"{where}: worker must be a string or null")
    truncate_at = payload.get("truncate_at")
    if kind == "torn_write":
        if (
            not isinstance(truncate_at, int)
            or isinstance(truncate_at, bool)
            or truncate_at < 0
        ):
            problems.append(
                f"{where}: torn_write requires truncate_at int >= 0, "
                f"got {truncate_at!r}"
            )
    elif truncate_at is not None:
        problems.append(f"{where}: truncate_at is only valid for torn_write")
    skew_s = payload.get("skew_s")
    if kind == "clock_skew":
        if (
            not isinstance(skew_s, (int, float))
            or isinstance(skew_s, bool)
            or not _finite(skew_s)
            or skew_s == 0.0
        ):
            problems.append(
                f"{where}: clock_skew requires a finite non-zero skew_s, "
                f"got {skew_s!r}"
            )
    elif skew_s is not None:
        problems.append(f"{where}: skew_s is only valid for clock_skew")
    hang_s = payload.get("hang_s")
    if kind == "hang":
        if (
            not isinstance(hang_s, (int, float))
            or isinstance(hang_s, bool)
            or not _finite(hang_s)
            or hang_s <= 0.0
        ):
            problems.append(
                f"{where}: hang requires a positive finite hang_s, "
                f"got {hang_s!r}"
            )
    elif hang_s is not None:
        problems.append(f"{where}: hang_s is only valid for hang")
    unknown = set(payload) - {
        "site", "kind", "occurrence", "worker",
        "truncate_at", "skew_s", "hang_s",
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


def validate_chaos_plan(payload) -> List[str]:
    """Schema-check a chaos-plan document; returns a problem list.

    An empty list means the payload is a valid plan.  Used by
    ``repro.tools.validate`` and ``repro chaos --validate``.
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


class ChaosPlan:
    """An ordered, replayable list of chaos injections.

    Event order is the plan order (there is no time axis — events fire
    when their site/occurrence condition is met); the position of an
    event in the list is its stable id, used by the injector's
    applied-once latches.  ``seed`` is metadata recording how a
    generated plan was drawn; it does not affect replay.
    """

    def __init__(self, events: Optional[List[ChaosEvent]] = None,
                 seed: Optional[int] = None):
        self.events: List[ChaosEvent] = list(events or [])
        self.seed = seed

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChaosPlan):
            return NotImplemented
        return self.events == other.events

    def counts_by_kind(self) -> Dict[str, int]:
        counts = {kind: 0 for kind in CHAOS_KINDS}
        for event in self.events:
            counts[event.kind] += 1
        return counts

    @classmethod
    def empty(cls) -> "ChaosPlan":
        """The no-chaos plan: replaying it changes nothing."""
        return cls([])

    @classmethod
    def generate(
        cls,
        seed: int,
        scenarios: Optional[Sequence[str]] = None,
        workers: int = 2,
        lease_s: float = 2.0,
        max_events_per_kind: int = 2,
    ) -> "ChaosPlan":
        """Draw a stochastic plan with a fixed, documented draw order.

        For each requested kind, taken in :data:`CHAOS_KINDS` order,
        1..``max_events_per_kind`` events are drawn: a site from the
        kind's eligible list, an occurrence in 1..3, then the kind's
        parameters.  Durations scale with ``lease_s`` so hangs outlive
        the lease (forcing a requeue steal) and clock skews exceed it
        (forcing premature expiry); ``clock_skew`` events are scoped
        to one of the ``workers`` initial worker names so recovery
        rounds with fresh workers converge.
        """
        import random

        scenarios = tuple(scenarios) if scenarios else CHAOS_KINDS
        unknown = set(scenarios) - set(CHAOS_KINDS)
        if unknown:
            raise ValueError(
                f"unknown chaos scenarios {sorted(unknown)}; choose "
                f"from {list(CHAOS_KINDS)}"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if lease_s <= 0:
            raise ValueError(f"lease_s must be positive, got {lease_s}")
        if max_events_per_kind < 1:
            raise ValueError("max_events_per_kind must be >= 1")
        rng = random.Random(seed)
        events: List[ChaosEvent] = []
        for kind in CHAOS_KINDS:
            if kind not in scenarios:
                continue
            count = rng.randint(1, max_events_per_kind)
            for _ in range(count):
                site = rng.choice(list(KIND_SITES[kind]))
                occurrence = rng.randint(1, 3)
                if kind == "torn_write":
                    events.append(ChaosEvent(
                        site=site, kind=kind, occurrence=occurrence,
                        truncate_at=rng.randint(8, 120),
                    ))
                elif kind == "clock_skew":
                    events.append(ChaosEvent(
                        site=site, kind=kind, occurrence=occurrence,
                        worker=f"worker-{rng.randrange(workers)}",
                        skew_s=round(lease_s * rng.uniform(1.5, 3.0), 3),
                    ))
                elif kind == "hang":
                    events.append(ChaosEvent(
                        site=site, kind=kind, occurrence=occurrence,
                        hang_s=round(lease_s * rng.uniform(1.2, 2.0), 3),
                    ))
                else:  # worker_kill, enospc
                    events.append(ChaosEvent(
                        site=site, kind=kind, occurrence=occurrence,
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
    def from_dict(cls, payload: Dict) -> "ChaosPlan":
        problems = validate_chaos_plan(payload)
        if problems:
            raise ValueError(
                "invalid chaos plan: " + "; ".join(problems)
            )
        return cls(
            [ChaosEvent.from_dict(event) for event in payload["events"]],
            seed=payload.get("seed"),
        )


def write_chaos_plan(plan: ChaosPlan, path: str) -> str:
    """Serialise ``plan`` to ``path`` as canonical JSON."""
    with open(path, "w", encoding="ascii") as handle:
        json.dump(plan.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_chaos_plan(path: str) -> ChaosPlan:
    """Load and validate a chaos plan from a JSON file.

    Raises ``OSError`` when the file cannot be read and ``ValueError``
    for anything wrong with its contents.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return ChaosPlan.from_dict(payload)
