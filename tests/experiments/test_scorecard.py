"""Tests for the scorecard, the table of paper-shape claims.

The scorecard runs every study, so this is the slowest test in the
suite; it runs at reduced scale and is also the strongest single
regression guard the project has.
"""

import pytest

from repro.experiments import scorecard
from repro.experiments.scorecard import format_scorecard, run_scorecard

#: Every study driver the scorecard calls.
DRIVERS = (
    "table1_rows",
    "table2_rows",
    "run_limit_study",
    "run_bottleneck_study",
    "run_parallel_study",
    "run_rpm_study",
    "run_raid_study",
    "run_cost_study",
    "run_sensitivity_study",
)


@pytest.fixture(scope="module")
def scored():
    """The scorecard at 2,200 requests, and how often each driver ran."""
    calls = dict.fromkeys(DRIVERS, 0)
    with pytest.MonkeyPatch.context() as patch:
        for name in DRIVERS:

            def counted(*args, _driver=getattr(scorecard, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _driver(*args, **kwargs)

            patch.setattr(scorecard, name, counted)
        # >= 2000 requests: Fig. 5's Financial row needs saturation
        # divergence time.
        criteria = run_scorecard(requests=2200)
    return criteria, calls


@pytest.fixture(scope="module")
def criteria(scored):
    return scored[0]


class TestScorecard:
    def test_seven_criteria_in_order(self, criteria):
        numbers = [c.number for c in criteria if c.number is not None]
        assert numbers == sorted(numbers)
        assert set(numbers) == set(range(1, 8))

    def test_all_criteria_pass_at_reduced_scale(self, criteria):
        failing = [
            f"{c.artifact} {c.description}: {c.evidence}"
            for c in criteria
            if not c.passed
        ]
        assert not failing, "\n".join(failing)

    def test_each_study_runs_once(self, scored):
        assert scored[1] == dict.fromkeys(DRIVERS, 1)

    def test_evidence_is_populated(self, criteria):
        assert all(criterion.evidence for criterion in criteria)

    def test_formatting(self, criteria):
        text = format_scorecard(criteria)
        assert f"{len(criteria)}/{len(criteria)} paper-shape claims" in text
        assert "PASS" in text

    def test_scale_validated(self):
        with pytest.raises(ValueError, match="meaningful scale"):
            run_scorecard(requests=10)
