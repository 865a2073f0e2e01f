"""Tests for the figures-digest gate (``python -m repro bench``).

A tiny (500-request) pass checks the ``repro-bench/6`` snapshot; the
loader is fed hostile files and arbitrary JSON values; ``--check``
must fail on any digest or event-count drift, whatever ``--requests``
says.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.tools.bench import (
    BENCH_SCHEMA,
    GATED_KEYS,
    check_bench,
    format_bench,
    load_bench,
    run_bench,
    validate_bench,
    write_bench,
)

COMMITTED_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "BENCH_20260808.json"
)

with open(COMMITTED_PATH, encoding="utf-8") as _handle:
    COMMITTED = json.load(_handle)

#: The snapshot CI gates against: the same digest, with unwatched
#: completions settled in place (two fewer events per request).
GATE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "BENCH_20261019.json"
)


def _doctored(**overrides):
    return json.dumps(dict(COMMITTED, **overrides)).encode()


def _without(key):
    return json.dumps(
        {name: value for name, value in COMMITTED.items() if name != key}
    ).encode()


#: One file per way a baseline can be unusable; each must raise
#: ``ValueError`` naming the file, never a traceback.
HOSTILE_FILES = {
    "not-utf8": b"\xff\xfe{}",
    "invalid-json": b"{nope",
    "deep-nesting": b"[" * 100_000,
    "not-an-object": b"[1]",
    "schema-v2": _doctored(schema="repro-bench/2"),
    "missing-schema": _without("schema"),
    "missing-events": _without("events"),
    "requests-string": _doctored(requests="6000"),
    "requests-bool": _doctored(requests=True),
    "requests-zero": _doctored(requests=0),
    "workloads-empty": _doctored(workloads=[]),
    "workloads-unknown": _doctored(workloads=["websearch", "nope"]),
    "workloads-unhashable": _doctored(workloads=[["tpcc"]]),
    "events-negative": _doctored(events=-1),
    "events-float": _doctored(events=203976.0),
    "digest-int": _doctored(figures_sha256=5),
    "digest-uppercase": _doctored(figures_sha256="A" * 64),
}

_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6)
    | st.sampled_from([BENCH_SCHEMA, "websearch", "a" * 64])
)


def _containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=4) | st.integers(), inner, max_size=3
    )


_VALUES = st.recursive(_SCALARS, _containers, max_leaves=8)
_SNAPSHOTS = _VALUES | st.dictionaries(
    st.sampled_from(GATED_KEYS) | st.text(max_size=4),
    _VALUES,
    max_size=6,
)


@pytest.fixture(scope="module")
def smoke_result():
    return run_bench(requests=500, workloads=("websearch",))


class TestBenchSmoke:
    def test_schema_keys(self, smoke_result):
        assert smoke_result["schema"] == BENCH_SCHEMA
        assert set(smoke_result) == {"date", *GATED_KEYS}
        validate_bench(smoke_result)

    def test_serial_baseline_shape(self, smoke_result):
        assert smoke_result["requests"] == 500
        assert smoke_result["workloads"] == ["websearch"]
        assert smoke_result["events"] > 0
        assert len(smoke_result["figures_sha256"]) == 64

    def test_snapshot_round_trips_as_json(self, smoke_result, tmp_path):
        path = write_bench(smoke_result, str(tmp_path / "BENCH_test.json"))
        with open(path, encoding="ascii") as handle:
            loaded = json.load(handle)
        assert loaded == smoke_result

    def test_default_path_uses_date_stamp(self, smoke_result, tmp_path,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_bench(smoke_result)
        stamp = smoke_result["date"].replace("-", "")
        assert path == f"BENCH_{stamp}.json"
        assert (tmp_path / path).exists()

    def test_format_names_events_and_digest(self, smoke_result):
        text = format_bench(smoke_result)
        assert f"engine events per pass: {smoke_result['events']}" in text
        assert smoke_result["figures_sha256"] in text

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="requests"):
            run_bench(requests=0)
        with pytest.raises(ValueError, match="workloads"):
            run_bench(requests=500, workloads=("nope",))


class TestLoadBench:
    def test_round_trip(self, smoke_result, tmp_path):
        path = write_bench(smoke_result, str(tmp_path / "b.json"))
        assert load_bench(path) == smoke_result

    def test_committed_baseline_loads(self):
        snapshot = load_bench(COMMITTED_PATH)
        assert snapshot["events"] == 203976
        assert snapshot["figures_sha256"].startswith("813480fd")

    def test_gate_baseline_loads(self):
        snapshot = load_bench(GATE_PATH)
        assert snapshot["events"] == 107976
        assert snapshot["figures_sha256"] == COMMITTED["figures_sha256"]
        assert set(snapshot) == set(GATED_KEYS) | {"date"}

    def test_unread_keys_ignored(self):
        # Snapshots from before the timing cells were deleted carry
        # ``results``, ``kernel``, ``shard_scaling``, ``scheduler``...
        assert {"results", "kernel", "scheduler"} <= set(COMMITTED)
        validate_bench(dict(COMMITTED, results=[1], shard_scaling=3))

    def test_path_named_in_schema_error(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_bytes(_doctored(schema="repro-bench/0"))
        with pytest.raises(ValueError, match="old.json"):
            load_bench(str(path))

    @pytest.mark.parametrize(
        "content", list(HOSTILE_FILES.values()), ids=list(HOSTILE_FILES)
    )
    def test_hostile_files_raise_value_error(self, tmp_path, content):
        path = tmp_path / "base.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="base.json: "):
            load_bench(str(path))
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--check", str(path)])
        assert str(exit_info.value).startswith(
            f"bench --check: {path}: "
        )

    @settings(max_examples=300, deadline=None)
    @given(value=_SNAPSHOTS)
    def test_any_json_value_validates_or_raises_value_error(self, value):
        try:
            validate_bench(value)
        except ValueError:
            return
        assert check_bench(value, value) == []

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(sorted(COMMITTED)), value=_VALUES)
    def test_committed_snapshot_with_a_key_replaced(self, key, value):
        snapshot = dict(COMMITTED, **{key: value})
        try:
            validate_bench(snapshot)
        except ValueError:
            assert key in GATED_KEYS
            return
        assert check_bench(snapshot, snapshot) == []


class TestValidateBench:
    def test_not_a_dict(self):
        with pytest.raises(ValueError, match="not a JSON object"):
            validate_bench([])

    def test_source_named_in_error(self):
        with pytest.raises(ValueError, match="base.json"):
            validate_bench([], source="base.json")

    def test_unsupported_schema(self):
        with pytest.raises(ValueError, match="'schema' must be"):
            validate_bench(dict(COMMITTED, schema="repro-bench/9"))


class TestCheckBench:
    def test_identical_snapshots_pass(self):
        assert check_bench(COMMITTED, dict(COMMITTED)) == []

    def test_digest_mismatch_fails(self):
        problems = check_bench(
            COMMITTED, dict(COMMITTED, figures_sha256="b" * 64)
        )
        assert [p for p in problems if "digest mismatch" in p]

    def test_event_count_change_fails(self):
        problems = check_bench(COMMITTED, dict(COMMITTED, events=999))
        assert [p for p in problems if "event count" in p]

    def test_different_replay_is_a_problem(self):
        problems = check_bench(COMMITTED, dict(COMMITTED, requests=500))
        assert len(problems) == 1
        assert "replayed 500 requests" in problems[0]


class TestBenchCheckCli:
    @pytest.fixture(scope="class")
    def baseline(self, tmp_path_factory):
        result = run_bench(requests=300, workloads=("websearch",))
        path = tmp_path_factory.mktemp("check") / "base.json"
        return result, write_bench(result, str(path))

    def test_check_against_matching_baseline(self, baseline, capsys):
        _, path = baseline
        assert main(["bench", "--check", path]) == 0
        out = capsys.readouterr().out
        assert "bench check PASSED (figure digest identical)" in out

    def test_check_replays_baseline_requests(self, baseline, capsys):
        # ``--requests`` cannot shrink the replay below what the
        # baseline recorded, so the digest is always compared.
        _, path = baseline
        assert main(["bench", "--check", path, "--requests", "50"]) == 0
        out = capsys.readouterr().out
        assert "Bench: 300 requests x 1 workloads" in out
        assert "figure digest identical" in out

    def test_check_digest_mismatch_exits_nonzero(
        self, baseline, tmp_path, capsys
    ):
        result, _ = baseline
        doctored = write_bench(
            dict(result, figures_sha256="0" * 64),
            str(tmp_path / "doctored.json"),
        )
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--check", doctored, "--requests", "50"])
        assert exit_info.value.code == 1
        out = capsys.readouterr().out
        assert "bench check FAILED" in out
        assert "digest mismatch" in out

    def test_check_bad_baseline_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro-bench/9"}')
        with pytest.raises(SystemExit, match="bench --check"):
            main(["bench", "--check", str(bad)])
