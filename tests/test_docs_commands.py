"""Every ``python -m repro`` command shown in the docs parses.

README.md, EXPERIMENTS.md and docs/*.md show commands in fenced code
blocks; a flag renamed or removed in the CLI would leave them failing
with a usage error.  Each ``;``-separated command on such a line must
be accepted by :func:`repro.cli.build_parser` (trailing ``#`` comments
ignored).
"""

import glob
import os
import re
import shlex

import pytest

from repro.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PREFIX = ["python", "-m", "repro"]


def documented_commands():
    paths = [
        os.path.join(ROOT, "README.md"), os.path.join(ROOT, "EXPERIMENTS.md")
    ] + sorted(
        glob.glob(os.path.join(ROOT, "docs", "*.md"))
    )
    commands = []
    for path in paths:
        fenced = False
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                if line.lstrip().startswith("```"):
                    fenced = not fenced
                    continue
                if not fenced or "python -m repro" not in line:
                    continue
                code = re.sub(r"\s+#.*$", "", line.strip())
                for command in code.split(";"):
                    where = f"{os.path.relpath(path, ROOT)}:{number}"
                    commands.append(
                        pytest.param(command.strip(), id=where)
                    )
    return commands


COMMANDS = documented_commands()


def test_docs_show_commands():
    assert len(COMMANDS) >= 80


@pytest.mark.parametrize("command", COMMANDS)
def test_documented_command_parses(command):
    words = shlex.split(command)
    assert words[:3] == PREFIX, command
    try:
        build_parser().parse_args(words[3:])
    except SystemExit as stop:
        pytest.fail(f"{command!r} exits {stop.code}")
