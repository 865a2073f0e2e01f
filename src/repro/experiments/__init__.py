"""Experiment drivers: one module per paper table/figure.

* :mod:`repro.experiments.configs` — MD / HC-SD / HC-SD-SA(n) storage
  system factories for each workload.
* :mod:`repro.experiments.runner` — the open-loop trace driver.
* :mod:`repro.experiments.limit_study` — Figures 2 and 3.
* :mod:`repro.experiments.bottleneck` — Figure 4.
* :mod:`repro.experiments.parallel_study` — Figure 5.
* :mod:`repro.experiments.rpm_study` — Figures 6 and 7.
* :mod:`repro.experiments.raid_study` — Figure 8.
* :mod:`repro.experiments.technology` — Tables 1 and 2.
* :mod:`repro.experiments.cost_study` — Table 9a / Figure 9b.
* :mod:`repro.experiments.executor` — the process-parallel ``sweep()``
  fan-out every driver above runs on (``n_workers`` parameter).
"""

from repro import _lazy_namespace

__getattr__, __dir__ = _lazy_namespace(
    globals(),
    {
        "repro.experiments.bottleneck": ("run_bottleneck_study",),
        "repro.experiments.configs": (
            "build_hcsd_drive",
            "build_hcsd_system",
            "build_md_system",
            "build_raid0_system",
        ),
        "repro.experiments.cost_study": ("run_cost_study",),
        "repro.experiments.executor": ("Job", "sweep", "sweep_by_key"),
        "repro.experiments.limit_study": ("run_limit_study",),
        "repro.experiments.parallel_study": ("run_parallel_study",),
        "repro.experiments.raid_study": ("run_raid_study",),
        "repro.experiments.rpm_study": ("run_rpm_study",),
        "repro.experiments.runner": ("RunResult", "run_trace"),
    },
)

__all__ = [
    "Job",
    "sweep",
    "sweep_by_key",
    "RunResult",
    "build_hcsd_drive",
    "build_hcsd_system",
    "build_md_system",
    "build_raid0_system",
    "run_bottleneck_study",
    "run_cost_study",
    "run_limit_study",
    "run_parallel_study",
    "run_raid_study",
    "run_rpm_study",
    "run_trace",
]
