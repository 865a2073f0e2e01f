"""Discrete-event simulation kernel.

A small, self-contained engine in the style of SimPy: an
:class:`~repro.sim.engine.Environment` owns simulated time and an event
heap; *processes* are Python generators that ``yield`` events (timeouts,
other processes, resource requests) and are resumed when those events
trigger.  The disk, RAID, and workload models in the rest of the package
are all built on this kernel.
"""

from repro import _lazy_namespace

__getattr__, __dir__ = _lazy_namespace(
    globals(),
    {
        "repro.sim.distributions": (
            "BernoulliStream",
            "ExponentialStream",
            "NormalStream",
            "ParetoStream",
            "RandomStream",
            "UniformStream",
        ),
        "repro.sim.engine": (
            "AllOf",
            "AnyOf",
            "Environment",
            "Event",
            "Interrupt",
            "Process",
            "SimulationError",
            "Timeout",
        ),
        "repro.sim.resources": ("PriorityStore", "Resource", "Store"),
        "repro.sim.stats": (
            "BucketHistogram",
            "OnlineStats",
            "TimeWeightedStat",
        ),
    },
)

__all__ = [
    "AllOf",
    "AnyOf",
    "BernoulliStream",
    "BucketHistogram",
    "Environment",
    "Event",
    "ExponentialStream",
    "Interrupt",
    "NormalStream",
    "OnlineStats",
    "ParetoStream",
    "PriorityStore",
    "Process",
    "RandomStream",
    "Resource",
    "SimulationError",
    "Store",
    "TimeWeightedStat",
    "Timeout",
    "UniformStream",
]
