"""Conventional disk-drive substrate (a DiskSim-equivalent in Python).

This package models a hard disk drive at the level of detail the
paper's methodology requires:

* :mod:`repro.disk.geometry` — zoned platter geometry and LBA→PBA maps.
* :mod:`repro.disk.seek` — seek-time curve models.
* :mod:`repro.disk.rotation` — spindle mechanics and rotational latency.
* :mod:`repro.disk.cache` — the segmented on-board cache with read-ahead.
* :mod:`repro.disk.scheduler` — queue schedulers (FCFS/SSTF/SPTF/C-LOOK).
* :mod:`repro.disk.specs` — published drive specifications (Table 1 et al.).
* :mod:`repro.disk.actuator` — arm-assembly state.
* :mod:`repro.disk.drive` — the drive service model: one spindle, ``n``
  arm assemblies (one for the conventional drive).
"""

from repro import _lazy_namespace

__getattr__, __dir__ = _lazy_namespace(
    globals(),
    {
        "repro.disk.actuator": ("ArmAssembly",),
        "repro.disk.cache": ("DiskCache",),
        "repro.disk.drive": ("ConventionalDrive", "DriveStats"),
        "repro.disk.drpm": ("DynamicRpmDrive",),
        "repro.disk.freeblock": ("FreeblockDrive",),
        "repro.disk.geometry": ("DiskGeometry", "PhysicalAddress", "Zone"),
        "repro.disk.request": ("IORequest",),
        "repro.disk.rotation": ("Spindle",),
        "repro.disk.scheduler": (
            "CLookScheduler",
            "FCFSScheduler",
            "ForegroundFirstScheduler",
            "QueueScheduler",
            "SPTFScheduler",
            "SSTFScheduler",
            "make_scheduler",
        ),
        "repro.disk.seek": (
            "ConstantSeekModel",
            "LinearSeekModel",
            "SeekModel",
            "ThreePointSeekModel",
            "TwoPhaseSeekModel",
        ),
        "repro.disk.specs": (
            "BARRACUDA_ES",
            "CHEETAH_10K",
            "CONNERS_CP3100",
            "DriveSpec",
            "FUJITSU_M2361A",
            "IBM_3380_AK4",
            "SPEC_CATALOG",
            "TPCH_DRIVE",
        ),
    },
)

__all__ = [
    "ArmAssembly",
    "BARRACUDA_ES",
    "CHEETAH_10K",
    "CLookScheduler",
    "CONNERS_CP3100",
    "ConstantSeekModel",
    "ConventionalDrive",
    "DiskCache",
    "DiskGeometry",
    "DriveSpec",
    "DriveStats",
    "DynamicRpmDrive",
    "FCFSScheduler",
    "ForegroundFirstScheduler",
    "FreeblockDrive",
    "FUJITSU_M2361A",
    "IBM_3380_AK4",
    "IORequest",
    "LinearSeekModel",
    "PhysicalAddress",
    "QueueScheduler",
    "SPEC_CATALOG",
    "SPTFScheduler",
    "SSTFScheduler",
    "SeekModel",
    "Spindle",
    "ThreePointSeekModel",
    "TwoPhaseSeekModel",
    "TPCH_DRIVE",
    "Zone",
    "make_scheduler",
]
