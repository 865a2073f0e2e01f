"""Tests for fault-plan construction, generation, and the schema."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.plan import (
    FAULT_KINDS,
    LATENT_ATTEMPTS,
    FaultEvent,
    FaultPlan,
    load_fault_plan,
    validate_fault_plan,
    write_fault_plan,
)


class TestFaultEvent:
    def test_valid_event(self):
        event = FaultEvent(time_ms=5.0, kind="transient", drive=1,
                           lba=100, attempts=2)
        assert event.kind == "transient"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(time_ms=0.0, kind="cosmic_ray")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time_ms"):
            FaultEvent(time_ms=-1.0, kind="transient")

    def test_arm_failure_requires_arm(self):
        with pytest.raises(ValueError, match="arm"):
            FaultEvent(time_ms=0.0, kind="arm_failure")

    def test_attempts_must_be_positive(self):
        with pytest.raises(ValueError, match="attempts"):
            FaultEvent(time_ms=0.0, kind="latent", attempts=0)

    def test_dict_round_trip(self):
        event = FaultEvent(time_ms=3.5, kind="arm_failure", drive=2,
                           arm=1)
        assert FaultEvent.from_dict(event.to_dict()) == event

    def test_dict_omits_defaults(self):
        payload = FaultEvent(time_ms=1.0, kind="transient").to_dict()
        assert "lba" not in payload
        assert "attempts" not in payload
        assert "arm" not in payload


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan([
            FaultEvent(time_ms=9.0, kind="transient"),
            FaultEvent(time_ms=1.0, kind="latent"),
        ])
        assert [event.time_ms for event in plan] == [1.0, 9.0]

    def test_tie_break_preserves_insertion_order(self):
        first = FaultEvent(time_ms=2.0, kind="transient", drive=0)
        second = FaultEvent(time_ms=2.0, kind="latent", drive=1)
        plan = FaultPlan([first, second])
        assert plan.events == [first, second]

    def test_empty_plan(self):
        plan = FaultPlan.empty()
        assert len(plan) == 0
        assert plan.counts_by_kind() == {kind: 0 for kind in FAULT_KINDS}

    def test_counts_by_kind(self):
        plan = FaultPlan([
            FaultEvent(time_ms=1.0, kind="transient"),
            FaultEvent(time_ms=2.0, kind="transient"),
            FaultEvent(time_ms=3.0, kind="drive_failure"),
        ])
        counts = plan.counts_by_kind()
        assert counts["transient"] == 2
        assert counts["drive_failure"] == 1

    def test_dict_round_trip(self):
        plan = FaultPlan(
            [FaultEvent(time_ms=1.0, kind="transient", lba=5)], seed=7
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone == plan
        assert clone.seed == 7

    def test_from_dict_rejects_invalid(self):
        with pytest.raises(ValueError, match="invalid fault plan"):
            FaultPlan.from_dict({"version": 1, "events": [{"kind": "x"}]})


class TestGenerate:
    def test_same_seed_same_plan(self):
        kwargs = dict(
            horizon_ms=10_000.0,
            drives=4,
            capacity_sectors=50_000,
            transient_mtbf_ms=2_000.0,
            latent_mtbf_ms=8_000.0,
        )
        assert FaultPlan.generate(seed=11, **kwargs) == FaultPlan.generate(
            seed=11, **kwargs
        )

    def test_different_seed_different_plan(self):
        kwargs = dict(horizon_ms=10_000.0, transient_mtbf_ms=500.0)
        assert FaultPlan.generate(seed=1, **kwargs) != FaultPlan.generate(
            seed=2, **kwargs
        )

    def test_events_within_horizon(self):
        plan = FaultPlan.generate(
            seed=3, horizon_ms=5_000.0, transient_mtbf_ms=300.0
        )
        assert len(plan) > 0
        assert all(0.0 <= e.time_ms < 5_000.0 for e in plan
                   if e.kind != "spare_arrival")

    def test_latent_attempts_exceed_any_budget(self):
        plan = FaultPlan.generate(
            seed=5, horizon_ms=50_000.0, latent_mtbf_ms=5_000.0
        )
        latents = [e for e in plan if e.kind == "latent"]
        assert latents
        assert all(e.attempts == LATENT_ATTEMPTS for e in latents)

    def test_at_most_one_drive_failure_with_spare(self):
        plan = FaultPlan.generate(
            seed=9,
            horizon_ms=10_000.0,
            drives=4,
            drive_mtbf_ms=2_000.0,
            spare_delay_ms=500.0,
        )
        counts = plan.counts_by_kind()
        assert counts["drive_failure"] == 1
        assert counts["spare_arrival"] == 1
        failure = next(e for e in plan if e.kind == "drive_failure")
        spare = next(e for e in plan if e.kind == "spare_arrival")
        assert spare.time_ms == failure.time_ms + 500.0
        assert spare.drive == failure.drive

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError, match="horizon_ms"):
            FaultPlan.generate(seed=1, horizon_ms=0.0)


class TestSchema:
    def test_valid_plan_passes(self):
        payload = FaultPlan(
            [FaultEvent(time_ms=1.0, kind="transient")], seed=3
        ).to_dict()
        assert validate_fault_plan(payload) == []

    def test_wrong_version(self):
        assert any(
            "version" in p
            for p in validate_fault_plan({"version": 2, "events": []})
        )

    def test_events_must_be_list(self):
        assert any(
            "events" in p
            for p in validate_fault_plan({"version": 1, "events": {}})
        )

    def test_unknown_event_field_flagged(self):
        payload = {
            "version": 1,
            "events": [{"time_ms": 1.0, "kind": "transient",
                        "severity": 3}],
        }
        assert any("unknown" in p for p in validate_fault_plan(payload))

    def test_unknown_plan_field_flagged(self):
        payload = {"version": 1, "events": [], "comment": "hi"}
        assert any("unknown" in p for p in validate_fault_plan(payload))

    def test_non_object_rejected(self):
        assert validate_fault_plan([1, 2]) != []

    def test_problem_lists_index(self):
        payload = {"version": 1, "events": [
            {"time_ms": 1.0, "kind": "transient"},
            {"time_ms": "soon", "kind": "transient"},
        ]}
        assert any("events[1]" in p for p in validate_fault_plan(payload))


class TestFileRoundTrip:
    def test_write_then_load(self, tmp_path):
        plan = FaultPlan.generate(
            seed=21, horizon_ms=4_000.0, drives=2,
            capacity_sectors=10_000, transient_mtbf_ms=800.0,
        )
        path = str(tmp_path / "plan.json")
        write_fault_plan(plan, path)
        assert load_fault_plan(path) == plan

    def test_validate_file_helper(self, tmp_path):
        from repro.tools.validate import validate_fault_plan_file

        path = str(tmp_path / "plan.json")
        write_fault_plan(FaultPlan.empty(), path)
        assert validate_fault_plan_file(path) == []
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert validate_fault_plan_file(str(bad)) != []
        assert validate_fault_plan_file(str(tmp_path / "nope.json")) != []


#: A JSON integer with 401 digits: beyond float range, unlike ``1e400``,
#: which parses to ``inf``.
HUGE = 10 ** 400

_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.integers(min_value=2 ** 1024, max_value=10 ** 420)
    | st.text(max_size=6) | st.sampled_from(FAULT_KINDS)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4) | st.integers(), inner,
                      max_size=3),
    max_leaves=8,
)
_EVENTS = st.dictionaries(
    st.sampled_from(["time_ms", "kind", "drive", "arm", "lba", "attempts"])
    | st.text(max_size=4) | st.integers(),
    _VALUES,
    max_size=7,
)
_PLANS = st.dictionaries(
    st.sampled_from(["version", "events", "seed"])
    | st.text(max_size=4) | st.integers(),
    st.just(1) | _VALUES | st.lists(_EVENTS, max_size=3),
    max_size=4,
)


class TestHostileInput:
    def event(self, **overrides):
        return dict({"time_ms": 1.0, "kind": "transient"}, **overrides)

    def test_integer_time_beyond_float_range_is_a_problem(self):
        payload = {"version": 1, "events": [self.event(time_ms=HUGE)]}
        problems = validate_fault_plan(payload)
        assert any("time_ms must be finite" in p for p in problems)
        with pytest.raises(ValueError, match="time_ms"):
            FaultPlan.from_dict(payload)

    def test_float_overflow_parses_to_inf_and_is_a_problem(self):
        payload = json.loads(
            '{"version": 1, "events": [{"time_ms": 1e400, '
            '"kind": "transient"}]}'
        )
        assert validate_fault_plan(payload)

    @pytest.mark.parametrize("level", ["plan", "event"])
    def test_unknown_keys_of_mixed_type_are_problems(self, level):
        payload = {"version": 1, "events": [self.event()]}
        target = payload if level == "plan" else payload["events"][0]
        target.update({3: 1, "x": 2})
        problems = validate_fault_plan(payload)
        assert any("unknown fields ['x', 3]" in p for p in problems)
        with pytest.raises(ValueError, match="unknown fields"):
            FaultPlan.from_dict(payload)

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe{}",
            ('{"version": 1, "events": [{"time_ms": %d, '
             '"kind": "transient"}]}' % HUGE).encode(),
            b"[" * 100_000,
        ],
        ids=["non-utf8", "401-digit", "deep-nesting"],
    )
    def test_bad_files_are_problems_not_tracebacks(
        self, tmp_path, capsys, content
    ):
        from repro.cli import main
        from repro.tools.validate import validate_fault_plan_file

        path = tmp_path / "plan.json"
        path.write_bytes(content)
        assert validate_fault_plan_file(str(path))
        with pytest.raises(ValueError):
            load_fault_plan(str(path))
        with pytest.raises(SystemExit) as exit_info:
            main(["faults", "--validate", str(path)])
        assert exit_info.value.code == 1
        assert "INVALID" in capsys.readouterr().out

    @settings(max_examples=300, deadline=None)
    @given(payload=_PLANS)
    def test_validate_returns_problems_and_from_dict_raises_value_error(
        self, payload
    ):
        problems = validate_fault_plan(payload)
        assert isinstance(problems, list)
        try:
            plan = FaultPlan.from_dict(payload)
        except ValueError:
            assert problems
            return
        assert problems == []
        assert FaultPlan.from_dict(plan.to_dict()) == plan
