"""Self-test of the benchmark harness.

Run explicitly (it is not part of the tier-1 ``tests`` suite)::

    pytest perfbench/test_harness.py

It runs every workload twice at ``--smoke`` size and checks what the
harness promises: every declared metric printed with its unit, valid
names, repeatable deterministic counts, and a failing exit when a
pinned digest is wrong or the checkout has no ``src``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import ledger  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two full ``--smoke`` runs: (process, runs file) each."""
    results = []
    for index in range(2):
        out = tmp_path_factory.mktemp(f"smoke{index}") / "runs.json"
        process = _run(ROOT, "--smoke", "--out", str(out))
        results.append((process, json.loads(out.read_text())))
    return results


def test_every_declared_metric_is_printed_with_its_unit(smoke_runs):
    declared = MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    for process, _ in smoke_runs:
        assert process.returncode == 0, process.stderr
        lines = process.stdout.splitlines()
        printed = {}
        for line in lines[:-1]:
            workload, name, value, unit = line.split()
            float(value)
            printed[workload, name] = unit
        for workload in MANIFEST["workloads"]:
            for metric in declared:
                key = (workload["name"], metric["name"])
                assert printed.get(key) == metric["unit"], key
        final = json.loads(lines[-1])
        assert final["correct"] is True
        assert final["failed"] == 0 and final["attempted"] >= 1


def test_metric_names_and_limits():
    end_to_end = MANIFEST["end_to_end"]
    per_layer = MANIFEST["per_layer"]
    assert len(end_to_end) <= 16
    assert len(per_layer) <= 128
    names = [metric["name"] for metric in end_to_end + per_layer]
    names += [workload["name"] for workload in MANIFEST["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name


def test_deterministic_counts_repeat(smoke_runs):
    sets = [runs for _, runs in smoke_runs]
    _, mismatches = compare.compare(sets, MANIFEST)
    assert mismatches == []
    checked = [
        name
        for name in (metric["name"] for metric in MANIFEST["per_layer"])
        if compare.deterministic("limit", name)
    ]
    assert "sim.events_per_request" in checked
    assert "disk.calls_per_request" in checked


def test_wrong_pinned_digest_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    pins_path = tmp_path / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["limit.smoke"] = "0" * 64
    pins_path.write_text(json.dumps(pins))
    process = _run(tmp_path, "--smoke", "--workload", "limit", "--trace", "0")
    assert process.returncode == 1
    final = json.loads(process.stdout.splitlines()[-1])
    assert final["correct"] is False and final["failed"] > 0


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    process = _run(tmp_path, "--workload", "limit", "--trace", "0")
    assert process.returncode != 0
    assert not any(
        line.startswith("{") for line in process.stdout.splitlines()
    )


def test_ledger_charges_foreign_frames_to_their_callers(tmp_path):
    repro = str(tmp_path / "repro")
    drive = (f"{repro}/disk/drive.py", 1, "service")
    engine = (f"{repro}/sim/engine.py", 1, "step")
    harness = ("/bench/loads.py", 1, "job")
    builtin = ("~", 0, "<built-in method math.sqrt>")
    # cProfile's layout: (cc, nc, self, cumulative, {caller: (nc, ...)}).
    stats = {
        drive: (10, 10, 1.0, 2.0, {engine: (10, 10, 1.0, 2.0)}),
        engine: (5, 5, 2.0, 4.0, {harness: (5, 5, 2.0, 4.0)}),
        harness: (1, 1, 0.5, 5.0, {}),
        builtin: (
            40, 40, 4.0, 4.0,
            {drive: (30, 30, 3.0, 3.0), engine: (10, 10, 1.0, 1.0)},
        ),
    }
    split = ledger.attribute(stats, repro)
    assert split["disk"]["self_s"] == pytest.approx(1.0 + 3.0)
    assert split["sim"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert split["disk"]["calls"] == pytest.approx(10 + 30)
    assert split["other"]["self_s"] == pytest.approx(0.5)
    assert sum(entry["self_s"] for entry in split.values()) == (
        pytest.approx(7.5)
    )
