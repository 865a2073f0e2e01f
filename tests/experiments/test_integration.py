"""End-to-end integration tests: the paper's headline claims must hold
at reduced scale.

These run the real experiment drivers on shortened traces, so they are
the slowest tests in the suite (a few seconds each) but they guard the
reproduction's core results.
"""

import pytest

from repro.disk.scheduler import SPTFScheduler
from repro.experiments.bottleneck import run_bottleneck_study
from repro.experiments.configs import build_hcsd_system
from repro.experiments.limit_study import run_limit_study
from repro.experiments.parallel_study import run_parallel_study
from repro.experiments.raid_study import run_raid_study
from repro.experiments.runner import run_trace
from repro.obs.run import figures_digest
from repro.sim.engine import Environment
from repro.workloads.commercial import (
    COMMERCIAL_WORKLOADS,
    FINANCIAL,
    TPCH,
    WEBSEARCH,
)

REQUESTS = 2500

#: SHA-256 of Figure 8 at 400 requests per cell: every one of the 45
#: cells' mean, p90, response CDF, total power and ordered response
#: times.  Any change to the RAID request path that moves a sample, or
#: reorders two, changes it.
FIGURE8_400_SHA256 = (
    "aa862b56d16601484c17864130f3660e53624375e909c141e85d8786b4d54fda"
)

#: SHA-256 of Figures 2, 3 and 5 at 400 requests per run: the limit
#: study (MD, HC-SD), the parallel study (MD, HC-SD-SA(1-4)) and the
#: four HC-SD-SA(4) runs under queue-level SPTF, each run's mean, p90,
#: total power and ordered response times.  These runs serve JBOD and
#: concatenated requests in place, so a change that moves a sample, or
#: reorders two completions of one instant, changes it.
FIGURES_2_3_5_400_SHA256 = (
    "1daa8bc38b3e35de46db2599fd7c88346ab6c20f0f45a27a8f5043a7623fe833"
)


@pytest.fixture(scope="module")
def limit_results():
    return run_limit_study(
        workloads=[WEBSEARCH, TPCH], requests=REQUESTS
    )


def _pinned(run):
    return [
        run.mean_response_ms,
        run.percentile(90),
        run.power.total_watts,
        run.collector.response_times,
    ]


def test_figures_2_3_5_are_pinned():
    figures = []
    for name, result in sorted(run_limit_study(requests=400).items()):
        figures.append(["fig2/3", name, _pinned(result.md),
                        _pinned(result.hcsd)])
    for name, result in sorted(run_parallel_study(requests=400).items()):
        figures.append(["fig5", name, "md", _pinned(result.md)])
        for actuators, run in sorted(result.by_actuators.items()):
            figures.append(["fig5", name, actuators, _pinned(run)])
    for name, workload in sorted(COMMERCIAL_WORKLOADS.items()):
        env = Environment()
        system = build_hcsd_system(
            env, workload, actuators=4, scheduler=SPTFScheduler()
        )
        run = run_trace(env, system, workload.generate(400))
        figures.append(["sptf", name, _pinned(run)])
    assert len(figures) == 28
    assert figures_digest(figures) == FIGURES_2_3_5_400_SHA256


class TestLimitStudy:
    def test_hcsd_much_slower_for_intense_workload(self, limit_results):
        result = limit_results["websearch"]
        assert result.hcsd.mean_response_ms > 3 * result.md.mean_response_ms

    def test_tpch_nearly_unaffected(self, limit_results):
        result = limit_results["tpch"]
        assert result.hcsd.mean_response_ms < 3 * result.md.mean_response_ms

    def test_order_of_magnitude_power_reduction(self, limit_results):
        for result in limit_results.values():
            assert result.power_ratio > 4

    def test_md_idle_power_is_large_fraction(self, limit_results):
        """Paper Fig. 3: much of MD's power is consumed while idle."""
        md_power = limit_results["tpch"].md.power
        assert md_power.idle_watts > 0.5 * md_power.total_watts

    def test_all_requests_completed(self, limit_results):
        for result in limit_results.values():
            assert result.md.collector.completed == REQUESTS
            assert result.hcsd.collector.completed == REQUESTS


class TestBottleneck:
    @pytest.fixture(scope="class")
    def results(self):
        return run_bottleneck_study(
            workloads=[WEBSEARCH], requests=REQUESTS
        )

    def test_rotation_is_primary_bottleneck(self, results):
        assert results["websearch"].rotation_is_primary

    def test_quarter_rotation_beats_md(self, results):
        """Paper: (1/4)R lets HC-SD surpass MD for Websearch."""
        result = results["websearch"]
        assert (
            result.runs["(1/4)R"].mean_response_ms
            < result.md.mean_response_ms
        )

    def test_seek_elimination_insufficient(self, results):
        """Even S=0 does not recover MD performance."""
        result = results["websearch"]
        assert (
            result.runs["S=0"].mean_response_ms
            > result.md.mean_response_ms
        )

    def test_scaling_monotone_in_rotation(self, results):
        runs = results["websearch"].runs
        assert (
            runs["R=0"].mean_response_ms
            <= runs["(1/4)R"].mean_response_ms
            <= runs["(1/2)R"].mean_response_ms
            <= runs["HC-SD"].mean_response_ms
        )


class TestParallelStudy:
    @pytest.fixture(scope="class")
    def results(self):
        return run_parallel_study(
            workloads=[WEBSEARCH, FINANCIAL],
            actuator_counts=(1, 2, 4),
            requests=REQUESTS,
        )

    def test_actuators_improve_response(self, results):
        for result in results.values():
            means = {
                n: run.mean_response_ms
                for n, run in result.by_actuators.items()
            }
            assert means[2] < means[1]
            assert means[4] < means[2]

    def test_websearch_sa2_approaches_md(self, results):
        result = results["websearch"]
        sa2 = result.by_actuators[2].mean_response_ms
        assert sa2 < 3 * result.md.mean_response_ms

    def test_financial_never_catches_md(self, results):
        """Paper: even SA(4) does not match MD for Financial."""
        result = results["financial"]
        assert (
            result.by_actuators[4].mean_response_ms
            > result.md.mean_response_ms
        )

    def test_rotational_pdf_tail_shortens(self, results):
        result = results["websearch"]
        tail = lambda run: sum(run.rotational_pdf()[4:])  # > 7 ms
        assert tail(result.by_actuators[4]) < tail(result.by_actuators[1])

    def test_improvement_metric(self, results):
        result = results["websearch"]
        assert result.improvement_over_single(4) > 1.0


class TestRaidStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_raid_study(
            interarrivals_ms=(8.0,),
            disk_counts=(1, 2, 4),
            actuator_counts=(1, 4),
            requests=1500,
        )

    def test_more_disks_never_hurt_much(self, result):
        p90s = [result.p90(8.0, 1, d) for d in (1, 2, 4)]
        assert p90s[2] <= p90s[0]

    def test_parallel_members_outperform_conventional(self, result):
        assert result.p90(8.0, 4, 1) < result.p90(8.0, 1, 1)

    def test_single_sa4_breaks_even_with_4_conventional(self, result):
        """Paper Fig. 8 (8 ms): one 4-actuator drive ≈ four HC-SD."""
        assert result.p90(8.0, 4, 1) <= result.p90(8.0, 1, 4) * 1.25

    def test_power_scales_with_disk_count(self, result):
        assert result.power(8.0, 1, 4) > 3 * result.power(8.0, 1, 1)

    def test_figure8_is_pinned(self):
        cells = run_raid_study(requests=400).cells
        figures = [
            [
                list(key),
                run.mean_response_ms,
                run.percentile(90),
                run.response_cdf(),
                run.power.total_watts,
                run.collector.response_times,
            ]
            for key, run in sorted(cells.items())
        ]
        assert len(figures) == 45
        assert figures_digest(figures) == FIGURE8_400_SHA256
