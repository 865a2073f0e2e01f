"""Deterministic fault injection and request-path robustness.

The paper's discussion of intra-disk parallelism (§8) raises the
obvious objection to replacing a multi-disk array with one
multi-actuator drive: more arm assemblies mean more independent
failure points per spindle, and the iso-performance comparison is
only fair if the parallel drive can also survive and degrade
gracefully.  This package supplies the machinery to ask that question
quantitatively:

- :mod:`repro.faults.plan` — a seeded, deterministic
  :class:`~repro.faults.plan.FaultPlan` of scheduled and
  stochastically generated fault events (transient media errors,
  latent sector errors, arm failures, whole-drive failures, hot-spare
  arrival), serialisable to JSON.
- :mod:`repro.faults.injector` — a
  :class:`~repro.faults.injector.FaultInjector` simulation process
  that replays a plan against a live system, triggering the existing
  primitives (``inject_media_error``, ``deconfigure_arm``,
  ``fail_drive``, ``rebuild``) at simulated-time instants.
- :mod:`repro.faults.policy` — the
  :class:`~repro.faults.policy.RetryPolicy` shared by the drive
  service loop (bounded per-revolution media retries) and the array
  controller (slice resubmission with timeout and backoff).
- :mod:`repro.faults.errors` — exception types raised on the request
  path when robustness is exhausted.
- :mod:`repro.faults.mttdl` — the analytic MTTDL/availability model
  reported by the reliability study.

Determinism contract: a given plan replayed against a given seeded
simulation produces bit-identical figures, serial or under
``sweep()``; an *empty* plan leaves every figure bit-identical to a
run without the faults layer at all.
"""

from repro import _lazy_namespace

__getattr__, __dir__ = _lazy_namespace(
    globals(),
    {
        "repro.faults.errors": (
            "DataLossError",
            "FaultInjectionError",
            "MediaError",
        ),
        "repro.faults.injector": ("FaultInjector",),
        "repro.faults.mttdl": (
            "availability",
            "mttdl_parallel_drive",
            "mttdl_raid0",
            "mttdl_raid5",
            "mttdl_single",
        ),
        "repro.faults.plan": (
            "FAULT_KINDS",
            "FaultEvent",
            "FaultPlan",
            "load_fault_plan",
            "validate_fault_plan",
            "write_fault_plan",
        ),
        "repro.faults.policy": (
            "DEFAULT_MEDIA_RETRY",
            "ArmedMediaFault",
            "RetryPolicy",
        ),
    },
)

__all__ = [
    "ArmedMediaFault",
    "DataLossError",
    "DEFAULT_MEDIA_RETRY",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjectionError",
    "FaultInjector",
    "FaultPlan",
    "MediaError",
    "RetryPolicy",
    "availability",
    "load_fault_plan",
    "mttdl_parallel_drive",
    "mttdl_raid0",
    "mttdl_raid5",
    "mttdl_single",
    "validate_fault_plan",
    "write_fault_plan",
]
