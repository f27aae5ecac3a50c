"""The README's Quick start runs as written.

Each ``thzlink`` command of its ``sh`` block exits 0, and its library
example prints two finite numbers. Tier-1 does not install the package,
so a command runs as ``python -m thzlink.cli`` with ``PYTHONPATH`` on the
source tree, in a temporary directory that takes its ``--out`` files.
"""

import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quick_start_blocks():
    """Language -> code of each fenced block in the Quick start section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```(\w+)\n(.*?)^```$", section, re.M | re.S)
    assert sorted(language for language, _ in blocks) == ["python", "sh"]
    return dict(blocks)


def run(args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def test_quick_start_commands_exit_0(tmp_path):
    script = quick_start_blocks()["sh"].replace("\\\n", " ")
    commands = [shlex.split(line) for line in script.splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert {command[0] for command in commands} == {"thzlink"}
    for command in commands:
        child = run(["-m", "thzlink.cli", *command[1:]], tmp_path)
        assert child.returncode == 0, (command, child.stderr)
        if "--out" in command:
            assert (tmp_path / command[command.index("--out") + 1]).stat(
                ).st_size > 0


def test_library_example_prints_two_finite_numbers(tmp_path):
    child = run(["-c", quick_start_blocks()["python"]], tmp_path)
    assert child.returncode == 0, child.stderr
    printed = [line.split() for line in child.stdout.splitlines()]
    assert [unit for _, unit in printed] == ["dB", "bits/s"]
    assert all(math.isfinite(float(value)) for value, _ in printed)
