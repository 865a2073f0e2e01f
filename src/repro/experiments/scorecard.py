"""The reproduction scorecard: every paper-shape claim, executable.

The paper's evidence is a set of *shape* claims over Tables 1, 2 and
9a and Figures 2–9: who wins, and by roughly what factor.
:data:`CLAIMS` is the one ordered table of them.  Each row names its
artifact, states the claim, and checks it against that artifact's
study result, returning a verdict and the numbers behind it.  The
Figure 2–9 rows carry DESIGN.md §6's success-criterion numbers; the
sensitivity rows probe the arrival intensities this reproduction had
to calibrate itself (EXPERIMENTS.md, "Calibration notes").

:func:`run_scorecard` runs each study once and evaluates every row,
and ``python -m repro scorecard`` exits 1 when any row fails, so one
command answers "does the reproduction still stand?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.experiments.bottleneck import run_bottleneck_study
from repro.experiments.cost_study import run_cost_study
from repro.experiments.limit_study import run_limit_study
from repro.experiments.parallel_study import run_parallel_study
from repro.experiments.raid_study import run_raid_study
from repro.experiments.rpm_study import run_rpm_study
from repro.experiments.sensitivity import run_sensitivity_study
from repro.experiments.technology import table1_rows, table2_rows
from repro.metrics.report import format_table
from repro.workloads.commercial import COMMERCIAL_WORKLOADS

__all__ = ["CLAIMS", "Claim", "Criterion", "format_scorecard", "run_scorecard"]

DEFAULT_REQUESTS = 2500
#: Requests per generated trace in Table 2's arrival-intensity check.
INTENSITY_REQUESTS = 4000

#: The workloads whose original arrays HC-SD cannot replace.
INTENSE = ("financial", "websearch", "tpcc")
REDUCED_RPM = ("6200", "5200", "4200")


class Claim(NamedTuple):
    """One row of the table: a paper-shape claim and its check."""

    artifact: str
    #: DESIGN.md §6 success criterion (Figures 2–9), else ``None``.
    number: Optional[int]
    description: str
    #: The study whose result :attr:`check` reads (see run_scorecard).
    study: str
    #: study result -> (claim holds, evidence)
    check: Callable[[Any], Tuple[bool, str]]


@dataclass
class Criterion:
    """One evaluated row of the scorecard."""

    artifact: str
    number: Optional[int]
    description: str
    passed: bool
    evidence: str


def _each(values: Dict[str, Any], fmt: str) -> str:
    return ", ".join(
        f"{name}={fmt.format(value)}" for name, value in values.items()
    )


# --- Table 1 -----------------------------------------------------------------
def _table1_anchors(rows) -> Tuple[bool, str]:
    watts = {row.name: row.modelled_power_watts for row in rows}
    anchors = {
        name: watts[name]
        for name in ("barracuda-es-750", "intra-disk-parallel-4A")
    }
    ok = (
        abs(anchors["barracuda-es-750"] - 13.0) <= 0.01
        and abs(anchors["intra-disk-parallel-4A"] - 34.0) <= 0.01
    )
    return ok, _each(anchors, "{:.2f} W")


def _table1_historic(rows) -> Tuple[bool, str]:
    historic = [
        row
        for row in rows
        if row.name in ("ibm-3380-ak4", "fujitsu-m2361a", "conner-cp3100")
    ]
    ok = all(
        abs(row.modelled_power_watts - row.reference_power_watts)
        <= 0.10 * row.reference_power_watts
        for row in historic
    )
    return ok, "modelled vs published: " + ", ".join(
        f"{row.name}={row.modelled_power_watts:.1f}"
        f"/{row.reference_power_watts:.0f} W"
        for row in historic
    )


# --- Table 2 -----------------------------------------------------------------
def _table2_arrays(rows) -> Tuple[bool, str]:
    names = [row["workload"] for row in rows]
    ok = (
        names == ["financial", "websearch", "tpcc", "tpch"]
        and rows[0]["disks"] == 24
        and rows[3]["platters"] == 6
    )
    return ok, (
        f"{'/'.join(names)}; disks "
        + "/".join(str(row["disks"]) for row in rows)
        + f"; tpch platters {rows[3]['platters']}"
    )


def _table2_intensity(rows) -> Tuple[bool, str]:
    workloads = [COMMERCIAL_WORKLOADS[row["workload"]] for row in rows]
    gaps = {
        workload.name: (
            workload.generate(INTENSITY_REQUESTS).mean_interarrival_ms,
            workload.mean_interarrival_ms,
        )
        for workload in workloads
    }
    ok = all(
        abs(generated - modelled) <= 0.1 * modelled
        for generated, modelled in gaps.values()
    )
    return ok, "generated vs modelled mean gap: " + ", ".join(
        f"{name}={generated:.2f}/{modelled:.2f} ms"
        for name, (generated, modelled) in gaps.items()
    )


# --- Figure 2 (§6 criterion 1) -----------------------------------------------
def _fig2_collapse(limit) -> Tuple[bool, str]:
    ok = all(
        limit[name].hcsd.mean_response_ms
        > 3 * limit[name].md.mean_response_ms
        for name in INTENSE
    ) and (
        limit["tpch"].hcsd.mean_response_ms
        < 3 * limit["tpch"].md.mean_response_ms
    )
    gaps = {
        name: result.hcsd.mean_response_ms / result.md.mean_response_ms
        for name, result in limit.items()
    }
    return ok, "HC-SD/MD mean: " + _each(gaps, "{:.1f}x")


def _fig2_tail(limit) -> Tuple[bool, str]:
    ok = all(
        limit[name].hcsd.response_cdf()[2] < limit[name].md.response_cdf()[2]
        for name in INTENSE
    )
    return ok, "CDF@20ms HC-SD vs MD: " + ", ".join(
        f"{name}={limit[name].hcsd.response_cdf()[2]:.2f}"
        f"/{limit[name].md.response_cdf()[2]:.2f}"
        for name in INTENSE
    )


# --- Figure 3 (§6 criterion 2) -----------------------------------------------
def _fig3_power_cut(limit) -> Tuple[bool, str]:
    ratios = {name: result.power_ratio for name, result in limit.items()}
    ok = (
        all(ratio > 2.5 for ratio in ratios.values())
        and ratios["financial"] > 10
        and ratios["tpch"] > 8
    )
    return ok, "MD/HC-SD power: " + _each(ratios, "{:.1f}x")


def _fig3_idle(limit) -> Tuple[bool, str]:
    shares = {
        name: result.md.power.idle_watts / result.md.power.total_watts
        for name, result in limit.items()
    }
    ok = all(
        result.md.power.idle_watts > 0.5 * result.md.power.total_watts
        for result in limit.values()
    )
    return ok, "MD idle share: " + _each(shares, "{:.0%}")


# --- Figure 4 (§6 criterion 3) -----------------------------------------------
def _fig4_rotation(bottleneck) -> Tuple[bool, str]:
    ok = all(result.rotation_is_primary for result in bottleneck.values())
    return ok, "(1/2)R vs (1/2)S mean ms: " + ", ".join(
        f"{name}={result.mean_response('(1/2)R'):.1f}"
        f"/{result.mean_response('(1/2)S'):.1f}"
        for name, result in bottleneck.items()
    )


def _fig4_quarter_r(bottleneck) -> Tuple[bool, str]:
    names = ("websearch", "tpcc", "tpch")
    ok = all(
        bottleneck[name].runs["(1/4)R"].mean_response_ms
        <= bottleneck[name].md.mean_response_ms * 1.1
        for name in names
    )
    ratios = {
        name: bottleneck[name].mean_response("(1/4)R")
        / bottleneck[name].md.mean_response_ms
        for name in names
    }
    return ok, "(1/4)R/MD mean: " + _each(ratios, "{:.2f}")


def _fig4_no_seeks(bottleneck) -> Tuple[bool, str]:
    ok = all(
        bottleneck[name].runs["S=0"].mean_response_ms
        > bottleneck[name].md.mean_response_ms
        for name in INTENSE
    )
    ratios = {
        name: bottleneck[name].mean_response("S=0")
        / bottleneck[name].md.mean_response_ms
        for name in INTENSE
    }
    return ok, "S=0/MD mean: " + _each(ratios, "{:.1f}x")


# --- Figure 5 (§6 criterion 4) -----------------------------------------------
def _fig5_diminishing(parallel) -> Tuple[bool, str]:
    means = {
        name: {
            n: run.mean_response_ms for n, run in result.by_actuators.items()
        }
        for name, result in parallel.items()
    }
    ok = all(
        by_n[2] < by_n[1] and by_n[3] < by_n[2] and by_n[4] <= by_n[3] * 1.05
        for by_n in means.values()
    )
    return ok, "mean ms SA(1..4): " + ", ".join(
        f"{name}=" + "/".join(f"{by_n[n]:.1f}" for n in sorted(by_n))
        for name, by_n in means.items()
    )


def _fig5_rotation(parallel) -> Tuple[bool, str]:
    rotational = {
        name: {
            n: run.collector.mean_rotational_ms
            for n, run in result.by_actuators.items()
        }
        for name, result in parallel.items()
    }
    ok = all(
        rots[4] < rots[2] < rots[1] for rots in rotational.values()
    )
    return ok, "mean rotational ms SA(1/2/4): " + ", ".join(
        f"{name}={rots[1]:.2f}/{rots[2]:.2f}/{rots[4]:.2f}"
        for name, rots in rotational.items()
    )


def _fig5_versus_md(parallel) -> Tuple[bool, str]:
    ratios = {
        name: result.by_actuators[4].mean_response_ms
        / result.md.mean_response_ms
        for name, result in parallel.items()
    }
    ok = all(
        parallel[name].by_actuators[4].mean_response_ms
        <= parallel[name].md.mean_response_ms
        for name in ("websearch", "tpcc")
    ) and (
        parallel["financial"].by_actuators[4].mean_response_ms
        > parallel["financial"].md.mean_response_ms
    )
    return ok, "SA(4)/MD mean: " + _each(ratios, "{:.2f}")


# --- Figures 6 and 7 (§6 criterion 5) ----------------------------------------
def _watts(result) -> Dict[str, float]:
    return {
        label: run.power.total_watts for label, run in result.runs.items()
    }


def _versus_hcsd(rpm, design: str, holds) -> Tuple[bool, str]:
    """Whether ``holds(design watts, HC-SD watts)`` for every workload."""
    watts = {name: _watts(result) for name, result in rpm.items()}
    ok = all(holds(by[design], by["HC-SD"]) for by in watts.values())
    return ok, f"{design} vs HC-SD W: " + ", ".join(
        f"{name}={by[design]:.1f}/{by['HC-SD']:.1f}"
        for name, by in watts.items()
    )


def _fig6_same_rpm(rpm) -> Tuple[bool, str]:
    return _versus_hcsd(rpm, "SA(4)/7200", lambda sa, hcsd: sa <= hcsd + 6.0)


def _fig6_monotone(rpm) -> Tuple[bool, str]:
    ladders = {
        name: [
            _watts(result)[f"SA(4)/{speed}"]
            for speed in ("7200",) + REDUCED_RPM
        ]
        for name, result in rpm.items()
    }
    ok = all(
        lower < higher
        for ladder in ladders.values()
        for higher, lower in zip(ladder, ladder[1:])
    )
    return ok, "SA(4) W at 7200..4200: " + ", ".join(
        f"{name}=" + "/".join(f"{watts:.1f}" for watts in ladder)
        for name, ladder in ladders.items()
    )


def _fig6_below_hcsd(rpm) -> Tuple[bool, str]:
    return _versus_hcsd(rpm, "SA(4)/4200", lambda sa, hcsd: sa < hcsd)


def _reduced_rpm_matches(result) -> Dict[str, Any]:
    return {
        label: run
        for label, run in result.breakeven_designs().items()
        if label.endswith(REDUCED_RPM)
    }


def _fig7_breakeven(rpm) -> Tuple[bool, str]:
    counts = {
        name: len(_reduced_rpm_matches(rpm[name]))
        for name in ("websearch", "tpcc", "tpch")
    }
    ok = all(count > 0 for count in counts.values())
    return ok, "reduced-RPM break-even designs: " + _each(counts, "{}")


def _fig7_power(rpm) -> Tuple[bool, str]:
    ok = True
    worst = {}
    for name in ("websearch", "tpcc", "tpch"):
        result = rpm[name]
        hcsd_watts = result.runs["HC-SD"].power.total_watts
        md_fraction = 0.40 if name == "tpcc" else 0.20
        watts = [
            run.power.total_watts
            for run in _reduced_rpm_matches(result).values()
        ]
        ok = ok and all(
            value < md_fraction * result.md.power.total_watts
            and value < hcsd_watts + 2.0
            for value in watts
        )
        worst[name] = (
            f"{max(watts, default=0.0):.1f}/"
            f"{result.md.power.total_watts:.0f}/{hcsd_watts:.1f}"
        )
    return ok, "max break-even W / MD W / HC-SD W: " + _each(worst, "{}")


# --- Figure 8 (§6 criterion 6) -----------------------------------------------
def _iso_performance(raid, ia_ms, disks, designs, factor) -> Tuple[bool, str]:
    """Whether each ``(actuators, drives)`` design's p90 at ``ia_ms`` is
    within ``factor`` of the p90 of ``disks`` conventional drives."""
    reference = raid.p90(ia_ms, 1, disks)
    p90s = {
        f"{count}xSA({arms})": raid.p90(ia_ms, arms, count)
        for arms, count in designs
    }
    ok = all(p90 <= reference * factor for p90 in p90s.values())
    return ok, (
        f"p90 at {ia_ms:g} ms: " + _each(p90s, "{:.1f}")
        + f", {disks}xHC-SD={reference:.1f} ms"
    )


def _fig8_light(raid) -> Tuple[bool, str]:
    return _iso_performance(raid, 8.0, 4, ((4, 1), (2, 2)), 1.25)


def _fig8_heavy(raid) -> Tuple[bool, str]:
    return _iso_performance(raid, 1.0, 16, ((2, 8), (4, 4)), 1.35)


def _fig8_savings(raid) -> Tuple[bool, str]:
    savings_sa2, savings_sa4 = raid.power_savings(1.0)
    ok = 0.30 <= savings_sa2 <= 0.55 and 0.50 <= savings_sa4 <= 0.75
    return ok, (
        f"savings at 1 ms: SA(2)={savings_sa2:.0%}, SA(4)={savings_sa4:.0%}"
    )


# --- Table 9a / Figure 9b (§6 criterion 7) -----------------------------------
def _table9a_totals(configs) -> Tuple[bool, str]:
    conventional, two_arm, four_arm = (config.per_drive for config in configs)
    ok = (
        abs(conventional.low - 67.7) <= 67.7e-6
        and abs(two_arm.high - 116.6) <= 116.6e-6
        and abs(four_arm.low - 165.8) <= 165.8e-6
    )
    return ok, f"per drive: {conventional} / {two_arm} / {four_arm}"


def _fig9b_savings(configs) -> Tuple[bool, str]:
    s2 = configs[1].savings_vs(configs[0])
    s4 = configs[2].savings_vs(configs[0])
    ok = abs(s2 - 0.27) < 0.01 and abs(s4 - 0.40) < 0.01
    return ok, f"measured {s2:.1%} and {s4:.1%}"


# --- Arrival-intensity sensitivity -------------------------------------------
SENSITIVITY_WORKLOADS = ("websearch", "tpcc")


def _by_scale(sensitivity, name) -> Dict[float, Any]:
    """The workload's cells keyed by inter-arrival scale, ascending."""
    cells = sorted(sensitivity.for_workload(name), key=lambda c: c.scale)
    return {cell.scale: cell for cell in cells}


def _sensitivity_gap_grows(sensitivity) -> Tuple[bool, str]:
    gaps = {
        name: [
            cell.gap_factor
            for cell in _by_scale(sensitivity, name).values()
        ]
        for name in SENSITIVITY_WORKLOADS
    }
    ok = all(
        ladder == sorted(ladder, reverse=True) for ladder in gaps.values()
    )
    return ok, "gap by ia scale 0.75..2.0: " + ", ".join(
        f"{name}=" + "/".join(f"{gap:.1f}" for gap in ladder)
        for name, ladder in gaps.items()
    )


def _sensitivity_nominal(sensitivity) -> Tuple[bool, str]:
    gaps = {
        name: _by_scale(sensitivity, name)[1.0].gap_factor
        for name in SENSITIVITY_WORKLOADS
    }
    return all(gap > 3 for gap in gaps.values()), (
        "gap at scale 1.0: " + _each(gaps, "{:.1f}x")
    )


def _sensitivity_need(sensitivity) -> Tuple[bool, str]:
    ok = all(
        sensitivity.monotone_actuator_need(name)
        for name in SENSITIVITY_WORKLOADS
    )
    return ok, "arms to match MD by ia scale 0.75..2.0: " + ", ".join(
        f"{name}=" + "/".join(
            str(cell.actuators_to_match())
            for cell in _by_scale(sensitivity, name).values()
        )
        for name in SENSITIVITY_WORKLOADS
    )


def _sensitivity_light(sensitivity) -> Tuple[bool, str]:
    needs = {
        name: _by_scale(sensitivity, name)[2.0].actuators_to_match()
        for name in SENSITIVITY_WORKLOADS
    }
    ok = all(need is not None and need <= 2 for need in needs.values())
    return ok, "arms to match MD at scale 2.0: " + _each(needs, "{}")


#: The table, in artifact order.
CLAIMS: Tuple[Claim, ...] = (
    Claim("Table 1", None, "Calibration anchors: Barracuda ES 13 W, "
          "4-actuator projection 34 W", "table1", _table1_anchors),
    Claim("Table 1", None, "Historic drives within 10% of their published "
          "power", "table1", _table1_historic),
    Claim("Table 2", None, "Workload models encode the published arrays",
          "table2", _table2_arrays),
    Claim("Table 2", None, "Generated traces honour each model's arrival "
          "intensity within 10%", "table2", _table2_intensity),
    Claim("Fig. 2", 1, "HC-SD collapses Financial/Websearch/TPC-C (mean "
          "> 3x MD); TPC-H stays under 3x", "limit", _fig2_collapse),
    Claim("Fig. 2", 1, "HC-SD serves less within 20 ms than MD for "
          "Financial/Websearch/TPC-C", "limit", _fig2_tail),
    Claim("Fig. 3", 2, "Consolidation cuts power > 10x (Financial), > 8x "
          "(TPC-H), > 2.5x everywhere", "limit", _fig3_power_cut),
    Claim("Fig. 3", 2, "Idle mode draws over half of MD power for every "
          "workload", "limit", _fig3_idle),
    Claim("Fig. 4", 3, "Rotational latency is the primary bottleneck: "
          "(1/2)R beats (1/2)S", "bottleneck", _fig4_rotation),
    Claim("Fig. 4", 3, "(1/4)R matches MD (within 10%) for "
          "Websearch/TPC-C/TPC-H", "bottleneck", _fig4_quarter_r),
    Claim("Fig. 4", 3, "Eliminating seeks (S=0) does not recover MD for "
          "Financial/Websearch/TPC-C", "bottleneck", _fig4_no_seeks),
    Claim("Fig. 5", 4, "Each added arm helps, with diminishing returns "
          "(SA(4) within 5% of SA(3))", "parallel", _fig5_diminishing),
    Claim("Fig. 5", 4, "Rotational-latency PDF tail shortens with n: mean "
          "SA(4) < SA(2) < SA(1)", "parallel", _fig5_rotation),
    Claim("Fig. 5", 4, "SA(4) matches MD for Websearch/TPC-C; Financial "
          "never catches MD", "parallel", _fig5_versus_md),
    Claim("Fig. 6", 5, "Same-RPM SA(4) draws within 6 W of HC-SD", "rpm",
          _fig6_same_rpm),
    Claim("Fig. 6", 5, "Lower RPM cuts SA(4) power at every step from "
          "7200 to 4200", "rpm", _fig6_monotone),
    Claim("Fig. 6", 5, "SA(4) at 4200 RPM draws less than the conventional "
          "HC-SD", "rpm", _fig6_below_hcsd),
    Claim("Fig. 7", 5, "Reduced-RPM SA designs break even with MD for "
          "Websearch/TPC-C/TPC-H", "rpm", _fig7_breakeven),
    Claim("Fig. 7", 5, "Those designs draw < 20% of MD power (40% for "
          "TPC-C) and < HC-SD + 2 W", "rpm", _fig7_power),
    Claim("Fig. 8", 6, "8 ms: 1xSA(4) and 2xSA(2) match 4 conventional "
          "drives (p90 within 25%)", "raid", _fig8_light),
    Claim("Fig. 8", 6, "1 ms: 8xSA(2) and 4xSA(4) match 16 conventional "
          "drives (p90 within 35%)", "raid", _fig8_heavy),
    Claim("Fig. 8", 6, "1 ms iso-performance power savings ~41%/60% "
          "(30-55% / 50-75%)", "raid", _fig8_savings),
    Claim("Table 9a", 7, "Drive material cost: 1 arm from $67.7, 2 arms "
          "up to $116.6, 4 arms from $165.8", "cost", _table9a_totals),
    Claim("Fig. 9b", 7, "Iso-performance cost savings 27% (2xSA(2)) and "
          "40% (1xSA(4))", "cost", _fig9b_savings),
    Claim("Sensitivity", None, "The MD -> HC-SD gap grows with arrival "
          "intensity", "sensitivity", _sensitivity_gap_grows),
    Claim("Sensitivity", None, "The HC-SD collapse holds at nominal "
          "intensity (gap > 3x)", "sensitivity", _sensitivity_nominal),
    Claim("Sensitivity", None, "Arms needed to match MD never fall as "
          "intensity rises", "sensitivity", _sensitivity_need),
    Claim("Sensitivity", None, "At half intensity SA(2) or fewer arms "
          "match MD", "sensitivity", _sensitivity_light),
)


def run_scorecard(
    requests: int = DEFAULT_REQUESTS, n_workers: int = 1
) -> List[Criterion]:
    """Run each study once and evaluate every row of :data:`CLAIMS`.

    Use ``requests >= 2000``: Figure 5's "Financial never catches MD"
    rests on slow queue divergence under saturation, which a shorter
    trace does not give time to develop.  The RAID and sensitivity
    sweeps run at ``max(1200, requests // 2)``.  ``n_workers`` fans
    each study's independent runs out across processes; the verdicts
    are identical for any worker count.
    """
    if requests < 500:
        raise ValueError(
            f"scorecard needs a meaningful scale, got {requests} requests"
        )
    sweep_requests = max(1200, requests // 2)
    studies = {
        "table1": table1_rows(),
        "table2": table2_rows(),
        "limit": run_limit_study(requests=requests, n_workers=n_workers),
        "bottleneck": run_bottleneck_study(
            requests=requests, n_workers=n_workers
        ),
        "parallel": run_parallel_study(
            requests=requests, n_workers=n_workers
        ),
        "rpm": run_rpm_study(requests=requests, n_workers=n_workers),
        "raid": run_raid_study(requests=sweep_requests, n_workers=n_workers),
        "cost": run_cost_study(n_workers=n_workers),
        "sensitivity": run_sensitivity_study(
            workloads=[
                COMMERCIAL_WORKLOADS[name] for name in SENSITIVITY_WORKLOADS
            ],
            requests=sweep_requests,
            n_workers=n_workers,
        ),
    }
    return [
        Criterion(
            claim.artifact,
            claim.number,
            claim.description,
            *claim.check(studies[claim.study]),
        )
        for claim in CLAIMS
    ]


def format_scorecard(criteria: List[Criterion]) -> str:
    """The evaluated rows as a table; ``#`` is the DESIGN.md §6 number."""
    rows = [
        (
            criterion.artifact,
            "" if criterion.number is None else criterion.number,
            "PASS" if criterion.passed else "FAIL",
            criterion.description,
            criterion.evidence,
        )
        for criterion in criteria
    ]
    passed = sum(1 for c in criteria if c.passed)
    return format_table(
        ["artifact", "#", "verdict", "claim", "evidence"],
        rows,
        title=(
            f"Reproduction scorecard: {passed}/{len(criteria)} "
            "paper-shape claims hold"
        ),
    )
