"""Intra-disk parallelism — the paper's primary contribution.

* :mod:`repro.core.taxonomy` — the DASH design-space taxonomy
  (``D_k A_l S_m H_n``).
* :mod:`repro.core.parallel_disk` — the HC-SD-SA(n) multi-actuator
  drive: the conventional drive's service path laid out with ``n`` arm
  assemblies, under the paper's two conventional-drive restrictions
  (one arm in motion, one head transferring).
* :mod:`repro.core.extensions` — the technical-report relaxations:
  multiple arms in motion (MA) and multiple data channels (MC).
* :mod:`repro.core.factory` — build any DASH configuration (including
  the D-dimension, realised as an array of smaller stacks).
"""

from repro import _lazy_namespace

__getattr__, __dir__ = _lazy_namespace(
    globals(),
    {
        "repro.core.extensions": ("OverlappedParallelDisk",),
        "repro.core.factory": ("build_dash_drive",),
        "repro.core.parallel_disk": ("ParallelDisk",),
        "repro.core.taxonomy": ("DashConfig", "CONVENTIONAL"),
    },
)

__all__ = [
    "CONVENTIONAL",
    "DashConfig",
    "OverlappedParallelDisk",
    "ParallelDisk",
    "build_dash_drive",
]
