"""A run loads only the modules it executes.

Every CLI command, serve client call and benchmark probe starts a fresh
interpreter, and this package is compiled from source on each start
when bytecode caching is off, so each module a run imports but never
calls costs every launch.  These tests run in a fresh interpreter and
check which modules a serial replay and ``python -m repro --help``
leave in ``sys.modules``.
"""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: What a serial replay on the MD and HC-SD systems does.
SERIAL_REPLAY = """
import json
import sys

import repro.experiments.configs
import repro.experiments.executor
import repro.experiments.runner
import repro.workloads.commercial
from repro.experiments.configs import build_hcsd_system, build_md_system
from repro.experiments.runner import run_trace
from repro.sim.engine import Environment
from repro.workloads.commercial import WEBSEARCH

trace = WEBSEARCH.generate(300)
for build in (build_hcsd_system, build_md_system):
    env = Environment()
    result = run_trace(env, build(env, WEBSEARCH), trace)
    assert result.requests == 300
print(json.dumps(sorted(sys.modules)))
"""

#: ``python -m repro --help``, keeping the interpreter to report.
CLI_HELP = """
import contextlib
import io
import json
import runpy
import sys

sys.argv = ["repro", "--help"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        assert stop.code == 0, stop.code
print(json.dumps(sorted(sys.modules)))
"""

#: Modules only optional paths use: the sharded kernel, trace
#: analytics and export, fault injection, the drive variants, MAID,
#: the DASH extensions and factory, the study drivers, cost data and
#: the process pools.  numpy is no dependency at all: importing it
#: alone would cost a replay more than its whole set-up.
NOT_ON_A_SERIAL_REPLAY = [
    "numpy",
    "repro.sim.sharded",
    "repro.obs.analysis",
    "repro.obs.report",
    "repro.obs.export",
    "repro.faults.plan",
    "repro.faults.injector",
    "repro.disk.freeblock",
    "repro.disk.drpm",
    "repro.raid.maid",
    "repro.core.extensions",
    "repro.core.factory",
    "repro.experiments.limit_study",
    "repro.experiments.bottleneck",
    "repro.experiments.parallel_study",
    "repro.experiments.rpm_study",
    "repro.experiments.raid_study",
    "repro.experiments.cost_study",
    "repro.cost",
    "concurrent.futures.process",
    "multiprocessing",
]


def _loaded_modules(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC, env.get("PYTHONPATH")) if path
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_serial_replay_loads_no_optional_module():
    loaded = _loaded_modules(SERIAL_REPLAY)
    assert "repro.experiments.runner" in loaded
    assert sorted(loaded & set(NOT_ON_A_SERIAL_REPLAY)) == []


def test_cli_help_loads_only_the_cli():
    loaded = _loaded_modules(CLI_HELP)
    ours = sorted(
        name for name in loaded if name == "repro" or name.startswith("repro.")
    )
    assert ours == ["repro", "repro.cli"]
