"""Chaos-plan generation, validation, and round-trip discipline."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.failpoints import FAILPOINT_SITES
from repro.chaos.plan import (
    CHAOS_KINDS,
    KIND_SITES,
    SCENARIO_ALIASES,
    ChaosEvent,
    ChaosPlan,
    load_chaos_plan,
    validate_chaos_plan,
    write_chaos_plan,
)


class TestGenerate:
    def test_deterministic_for_a_seed(self):
        a = ChaosPlan.generate(7)
        b = ChaosPlan.generate(7)
        assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self):
        plans = {
            json.dumps(ChaosPlan.generate(seed).to_dict())
            for seed in range(6)
        }
        assert len(plans) > 1

    def test_scenarios_restrict_kinds(self):
        plan = ChaosPlan.generate(
            0, scenarios=["worker_kill", "torn_write"]
        )
        kinds = {event.kind for event in plan}
        assert kinds <= {"worker_kill", "torn_write"}
        assert len(plan) >= 2  # at least one event per requested kind

    def test_every_kind_appears_unrestricted(self):
        plan = ChaosPlan.generate(3)
        counts = plan.counts_by_kind()
        assert all(counts[kind] >= 1 for kind in CHAOS_KINDS)

    def test_sites_are_kind_eligible(self):
        for seed in range(5):
            for event in ChaosPlan.generate(seed):
                assert event.site in KIND_SITES[event.kind]
                assert event.site in FAILPOINT_SITES

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown chaos scenarios"):
            ChaosPlan.generate(0, scenarios=["meteor-strike"])

    def test_clock_skew_scoped_to_initial_workers(self):
        plan = ChaosPlan.generate(0, scenarios=["clock_skew"], workers=3)
        for event in plan:
            assert event.worker in {"worker-0", "worker-1", "worker-2"}
            assert event.skew_s > 2.0  # exceeds the default lease


class TestValidation:
    def test_empty_plan_is_valid(self):
        assert validate_chaos_plan(ChaosPlan.empty().to_dict()) == []

    def test_generated_plans_are_valid(self):
        for seed in range(5):
            payload = ChaosPlan.generate(seed).to_dict()
            assert validate_chaos_plan(payload) == []

    def test_bad_version(self):
        problems = validate_chaos_plan({"version": 2, "events": []})
        assert any("version" in p for p in problems)

    def test_unknown_site_and_kind(self):
        payload = {
            "version": 1,
            "events": [{"site": "nope", "kind": "meteor"}],
        }
        problems = validate_chaos_plan(payload)
        assert any("site" in p for p in problems)
        assert any("kind" in p for p in problems)

    def test_kind_site_mismatch(self):
        payload = {
            "version": 1,
            "events": [
                {"site": "queue.clock", "kind": "worker_kill"}
            ],
        }
        problems = validate_chaos_plan(payload)
        assert any("cannot target" in p for p in problems)

    def test_missing_kind_parameters(self):
        for kind, field in (
            ("torn_write", "truncate_at"),
            ("clock_skew", "skew_s"),
            ("hang", "hang_s"),
        ):
            payload = {
                "version": 1,
                "events": [
                    {"site": KIND_SITES[kind][0], "kind": kind}
                ],
            }
            problems = validate_chaos_plan(payload)
            assert any(field in p for p in problems), (kind, problems)

    def test_stray_parameter_rejected(self):
        payload = {
            "version": 1,
            "events": [
                {
                    "site": "service.job.before_run",
                    "kind": "worker_kill",
                    "hang_s": 1.0,
                }
            ],
        }
        problems = validate_chaos_plan(payload)
        assert any("hang_s" in p for p in problems)

    def test_event_constructor_validates(self):
        with pytest.raises(ValueError, match="truncate_at"):
            ChaosEvent(site="queue.record.after_replace",
                       kind="torn_write")

    def test_aliases_cover_all_kinds(self):
        assert set(SCENARIO_ALIASES.values()) == set(CHAOS_KINDS)


class TestRoundTrip:
    def test_write_load_round_trip(self, tmp_path):
        plan = ChaosPlan.generate(11, workers=3)
        path = tmp_path / "plan.json"
        write_chaos_plan(plan, path)
        loaded = load_chaos_plan(path)
        assert loaded.to_dict() == plan.to_dict()
        assert loaded.seed == 11

    def test_load_rejects_invalid(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"version": 9, "events": []}')
        with pytest.raises(ValueError, match="invalid chaos plan"):
            load_chaos_plan(path)

    def test_validate_chaos_plan_file(self, tmp_path):
        from repro.tools.validate import validate_chaos_plan_file

        good = tmp_path / "good.json"
        write_chaos_plan(ChaosPlan.generate(0), good)
        assert validate_chaos_plan_file(good) == []

        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert validate_chaos_plan_file(bad)
        assert validate_chaos_plan_file(tmp_path / "missing.json")


#: A JSON integer with 401 digits: beyond float range, unlike ``1e400``,
#: which parses to ``inf``.
HUGE = 10 ** 400

_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.integers(min_value=2 ** 1024, max_value=10 ** 420)
    | st.text(max_size=6) | st.sampled_from(CHAOS_KINDS)
    | st.sampled_from(FAILPOINT_SITES)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4) | st.integers(), inner,
                      max_size=3),
    max_leaves=8,
)
_EVENTS = st.dictionaries(
    st.sampled_from([
        "site", "kind", "occurrence", "worker", "truncate_at", "skew_s",
        "hang_s",
    ])
    | st.text(max_size=4) | st.integers(),
    _VALUES,
    max_size=8,
)
_PLANS = st.dictionaries(
    st.sampled_from(["version", "events", "seed"])
    | st.text(max_size=4) | st.integers(),
    st.just(1) | _VALUES | st.lists(_EVENTS, max_size=3),
    max_size=4,
)


class TestHostileInput:
    @pytest.mark.parametrize(
        "event",
        [
            {"site": "queue.clock", "kind": "clock_skew", "skew_s": HUGE},
            {"site": "service.job.before_run", "kind": "hang",
             "hang_s": HUGE},
        ],
        ids=["skew_s", "hang_s"],
    )
    def test_durations_beyond_float_range_are_problems(self, event):
        payload = {"version": 1, "events": [event]}
        assert validate_chaos_plan(payload)
        with pytest.raises(ValueError, match="invalid chaos plan"):
            ChaosPlan.from_dict(payload)

    def test_unhashable_kind_is_a_problem(self):
        payload = {"version": 1, "events": [
            {"site": "queue.clock", "kind": ["hang"]},
        ]}
        assert any("kind" in p for p in validate_chaos_plan(payload))

    @pytest.mark.parametrize("level", ["plan", "event"])
    def test_unknown_keys_of_mixed_type_are_problems(self, level):
        payload = ChaosPlan.generate(0).to_dict()
        target = payload if level == "plan" else payload["events"][0]
        target.update({3: 1, "x": 2})
        problems = validate_chaos_plan(payload)
        assert any("unknown fields ['x', 3]" in p for p in problems)
        with pytest.raises(ValueError, match="unknown fields"):
            ChaosPlan.from_dict(payload)

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe{}",
            ('{"version": 1, "events": [{"site": "queue.clock", '
             '"kind": "clock_skew", "skew_s": %d}]}' % HUGE).encode(),
            b"[" * 100_000,
        ],
        ids=["non-utf8", "401-digit", "deep-nesting"],
    )
    def test_bad_files_are_problems_not_tracebacks(
        self, tmp_path, capsys, content
    ):
        from repro.cli import main
        from repro.tools.validate import validate_chaos_plan_file

        path = tmp_path / "plan.json"
        path.write_bytes(content)
        assert validate_chaos_plan_file(str(path))
        with pytest.raises(ValueError):
            load_chaos_plan(str(path))
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--validate", str(path)])
        assert exit_info.value.code == 1
        assert "INVALID" in capsys.readouterr().out

    @settings(max_examples=300, deadline=None)
    @given(payload=_PLANS)
    def test_validate_returns_problems_and_from_dict_raises_value_error(
        self, payload
    ):
        problems = validate_chaos_plan(payload)
        assert isinstance(problems, list)
        try:
            plan = ChaosPlan.from_dict(payload)
        except ValueError:
            assert problems
            return
        assert problems == []
        assert ChaosPlan.from_dict(plan.to_dict()) == plan
