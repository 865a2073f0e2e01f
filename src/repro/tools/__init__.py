"""Utility tooling around the simulator.

* :mod:`repro.tools.characterize` — DIXtrac-style black-box drive
  characterisation: recover a drive's rotation period, seek curve and
  zone bandwidth profile purely from timed I/O against its ``submit``
  interface.
* :mod:`repro.tools.validate` — analytic cross-checks of the simulator
  against M/G/1 queueing predictions.
* :mod:`repro.tools.bench` — the figures-digest gate behind
  ``python -m repro bench``: replay the fixed-seed limit study and fail
  ``--check`` unless its digest and event count match a baseline.
* :mod:`repro.tools.profile` — cProfile one serial bench pass
  (``python -m repro profile``).  Calibrated timings live in
  ``perfbench/``.
"""

from repro import _lazy_namespace

__getattr__, __dir__ = _lazy_namespace(
    globals(),
    {
        "repro.tools.bench": ("format_bench", "run_bench", "write_bench"),
        "repro.tools.characterize": (
            "CharacterizationReport",
            "characterize_drive",
            "estimate_rotation_period_ms",
            "estimate_seek_curve",
            "estimate_zone_bandwidth",
        ),
        "repro.tools.validate": (
            "mg1_mean_response_ms",
            "validate_against_mg1",
            "validate_chaos_plan_file",
            "validate_fault_plan_file",
        ),
    },
)

__all__ = [
    "CharacterizationReport",
    "characterize_drive",
    "estimate_rotation_period_ms",
    "estimate_seek_curve",
    "estimate_zone_bandwidth",
    "format_bench",
    "mg1_mean_response_ms",
    "run_bench",
    "validate_against_mg1",
    "validate_chaos_plan_file",
    "validate_fault_plan_file",
    "write_bench",
]
