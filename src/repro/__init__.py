"""repro — a reproduction of *Intra-Disk Parallelism: An Idea Whose
Time Has Come* (Sankar, Gurumurthi, Stan; ISCA 2008).

The package is a complete storage-system simulator in Python:

* :mod:`repro.sim` — discrete-event kernel (SimPy-style).
* :mod:`repro.disk` — conventional disk substrate: zoned geometry,
  seek/rotation mechanics, on-board cache, queue schedulers, published
  drive specs.
* :mod:`repro.core` — the paper's contribution: the DASH taxonomy and
  multi-actuator (intra-disk parallel) drive models.
* :mod:`repro.power` — electromechanical power models and per-mode
  energy accounting.
* :mod:`repro.raid` — array layouts (JBOD, concatenation, RAID-0/5)
  and the array controller.
* :mod:`repro.workloads` — traces, the DiskSim-style synthetic
  generator, and models of the paper's four commercial workloads.
* :mod:`repro.metrics` — the paper's CDF/PDF buckets and reporting.
* :mod:`repro.cost` — the Table-9a cost data and analysis.
* :mod:`repro.experiments` — one driver per paper table/figure.

Quickstart::

    from repro.sim import Environment
    from repro.workloads import WEBSEARCH
    from repro.experiments import build_hcsd_system, run_trace

    trace = WEBSEARCH.generate(5000)
    env = Environment()
    system = build_hcsd_system(env, WEBSEARCH, actuators=4)
    result = run_trace(env, system, trace)
    print(result.mean_response_ms, result.power.total_watts)
"""

import importlib

__version__ = "1.0.0"


def _lazy_namespace(namespace: dict, exports: dict):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package namespace.

    ``exports`` maps each defining module to the public names the
    package re-exports from it.  A name's module is imported on first
    access and the value is cached in ``namespace`` (the package's
    globals), so later lookups are plain attribute reads; a run only
    loads the modules whose names it uses.  Unknown names raise
    :class:`AttributeError`, which keeps ``hasattr``, three-argument
    ``getattr`` and ``from package import submodule`` working.
    """
    package = namespace["__name__"]
    where = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str):
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | where.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_namespace(
    globals(),
    {
        "repro.core.parallel_disk": ("ParallelDisk",),
        "repro.core.taxonomy": ("DashConfig",),
        "repro.disk.drive": ("ConventionalDrive",),
        "repro.disk.request": ("IORequest",),
        "repro.sim.engine": ("Environment",),
    },
)

__all__ = [
    "ConventionalDrive",
    "DashConfig",
    "Environment",
    "IORequest",
    "ParallelDisk",
    "__version__",
]
