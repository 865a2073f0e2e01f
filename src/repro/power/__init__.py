"""Disk power modelling (the paper's augmentation of DiskSim [44]).

* :mod:`repro.power.models` — component power models: spindle motor
  (∝ diameter^4.6 · RPM^2.8 · platters, per the paper's citation [18]),
  voice-coil motor, electronics, calibrated to the paper's Table 1
  (Barracuda-class peak 13 W; 4-actuator variant 34 W).
* :mod:`repro.power.accounting` — per-mode energy accounting over a
  simulation run (idle / seek / rotational latency / transfer), the
  breakdown of the paper's Figures 3 and 6.
"""

from repro import _lazy_namespace

__getattr__, __dir__ = _lazy_namespace(
    globals(),
    {
        "repro.power.accounting": (
            "PowerBreakdown",
            "array_power",
            "drive_power",
        ),
        "repro.power.models": (
            "DrivePowerModel",
            "SPM_DIAMETER_EXPONENT",
            "SPM_RPM_EXPONENT",
        ),
    },
)

__all__ = [
    "DrivePowerModel",
    "PowerBreakdown",
    "SPM_DIAMETER_EXPONENT",
    "SPM_RPM_EXPONENT",
    "array_power",
    "drive_power",
]
