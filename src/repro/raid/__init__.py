"""RAID / multi-disk array substrate.

Provides the storage-system layer above individual drives:

* :mod:`repro.raid.layout` — address-translation layouts: JBOD routing
  by source disk (the MD arrays), sequential concatenation (the paper's
  MD→HC-SD data layout, §7.1), and RAID-0 striping (the synthetic-array
  study, §7.3).  RAID-5 with rotating parity is included for
  completeness.
* :mod:`repro.raid.array` — the array controller that fans a logical
  request out to per-drive physical requests and completes it when all
  of them finish.
"""

from repro import _lazy_namespace

__getattr__, __dir__ = _lazy_namespace(
    globals(),
    {
        "repro.raid.array": ("DiskArray",),
        "repro.raid.layout": (
            "ConcatLayout",
            "InterleavedConcatLayout",
            "JBODLayout",
            "Layout",
            "Raid0Layout",
            "Raid1Layout",
            "Raid10Layout",
            "Raid5Layout",
            "Slice",
            "degraded_raid5_map",
        ),
        "repro.raid.maid": ("MaidArray",),
    },
)

__all__ = [
    "ConcatLayout",
    "DiskArray",
    "InterleavedConcatLayout",
    "JBODLayout",
    "Layout",
    "MaidArray",
    "Raid0Layout",
    "Raid1Layout",
    "Raid10Layout",
    "Raid5Layout",
    "Slice",
    "degraded_raid5_map",
]
