"""Cost-benefit analysis of intra-disk parallel drives (paper §9).

* :mod:`repro.cost.components` — the published component cost table
  (Table 9a), encoded as data with the per-actuator multiplicities.
* :mod:`repro.cost.analysis` — drive cost roll-ups and the
  iso-performance configuration comparison (Figure 9b).
"""

from repro import _lazy_namespace

__getattr__, __dir__ = _lazy_namespace(
    globals(),
    {
        "repro.cost.analysis": (
            "ConfigurationCost",
            "iso_performance_comparison",
        ),
        "repro.cost.components": (
            "COMPONENT_COSTS",
            "ComponentCost",
            "CostRange",
            "drive_material_cost",
        ),
    },
)

__all__ = [
    "COMPONENT_COSTS",
    "ComponentCost",
    "ConfigurationCost",
    "CostRange",
    "drive_material_cost",
    "iso_performance_comparison",
]
