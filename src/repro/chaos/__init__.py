"""Seeded, replayable chaos engineering for the serve stack.

The package splits the same way :mod:`repro.faults` does:

* :mod:`repro.chaos.failpoints` — the zero-cost-when-disabled site
  facility threaded through the serve stack.
* :mod:`repro.chaos.plan` — versioned, validated, seed-generated
  chaos plans (what to inject, where, when).
* :mod:`repro.chaos.injector` — replays a plan at the failpoints,
  with cross-process applied-once latches.
* :mod:`repro.chaos.campaign` — the invariant-checked campaign loop
  behind ``python -m repro chaos``.
"""

from repro import _lazy_namespace

__getattr__, __dir__ = _lazy_namespace(
    globals(),
    {
        "repro.chaos.campaign": (
            "CampaignResult",
            "resolve_scenarios",
            "run_campaign",
        ),
        "repro.chaos.failpoints": (
            "FAILPOINT_SITES",
            "NULL_FAILPOINTS",
            "NullFailpoints",
            "current_failpoints",
            "failpoints_session",
            "set_current_failpoints",
        ),
        "repro.chaos.injector": (
            "ChaosInjector",
            "ChaosKill",
            "applied_events",
        ),
        "repro.chaos.plan": (
            "CHAOS_KINDS",
            "KIND_SITES",
            "SCENARIO_ALIASES",
            "ChaosEvent",
            "ChaosPlan",
            "load_chaos_plan",
            "validate_chaos_plan",
            "write_chaos_plan",
        ),
    },
)

__all__ = [
    "CHAOS_KINDS",
    "CampaignResult",
    "ChaosEvent",
    "ChaosInjector",
    "ChaosKill",
    "ChaosPlan",
    "FAILPOINT_SITES",
    "KIND_SITES",
    "NULL_FAILPOINTS",
    "NullFailpoints",
    "SCENARIO_ALIASES",
    "applied_events",
    "current_failpoints",
    "failpoints_session",
    "load_chaos_plan",
    "resolve_scenarios",
    "run_campaign",
    "set_current_failpoints",
    "validate_chaos_plan",
    "write_chaos_plan",
]
