"""The README runs as written.

Each ``thzlink`` command of its ``sh`` blocks exits 0, its library
example prints two finite numbers, each number of its Paper claims table
is what that claim's command prints, and each repo-relative path it
names or links exists. Tier-1 does not install the package, so a
command runs as ``python -m thzlink.cli`` with ``PYTHONPATH`` on the
source tree, in a temporary directory that takes its ``--out`` files.
"""

import csv
import io
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")

# What an sh block may hold besides thzlink commands: installing the
# package and running this suite, which the suite itself does not run.
NOT_RUN = ("pip install ", "pytest", "PYTHONPATH=src python -m pytest")


def section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def fenced_blocks(text):
    """(language, code) of each fenced block of ``text``."""
    return re.findall(r"^```(\w+)\n(.*?)^```$", text, re.M | re.S)


def commands(script):
    """The argument lists of an sh script, its comments and blank lines
    dropped and its continued lines joined."""
    lines = script.replace("\\\n", " ").splitlines()
    return [words for words in (shlex.split(line, comments=True)
                                for line in lines) if words]


def quick_start_blocks():
    """Language -> code of each fenced block in the Quick start section."""
    blocks = fenced_blocks(section("Quick start"))
    assert sorted(language for language, _ in blocks) == ["python", "sh"]
    return dict(blocks)


def run(args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def run_thzlink(command, cwd):
    """A ``thzlink ...`` argument list, exit 0 and an empty stderr
    asserted; its stdout."""
    assert command[0] == "thzlink", command
    child = run(["-m", "thzlink.cli", *command[1:]], cwd)
    assert child.returncode == 0, (command, child.stderr)
    assert child.stderr == "", (command, child.stderr)
    if "--out" in command:
        assert (cwd / command[command.index("--out") + 1]).stat().st_size
    return child.stdout


def test_quick_start_commands_exit_0(tmp_path):
    script = quick_start_blocks()["sh"]
    assert {command[0] for command in commands(script)} == {"thzlink"}
    for command in commands(script):
        run_thzlink(command, tmp_path)


def test_every_other_sh_block_runs_or_only_sets_up(tmp_path):
    """Outside the Quick start, each sh line is a thzlink command, which
    must exit 0, or one of NOT_RUN's, which install or run the suite."""
    text = README.replace(section("Quick start"), "")
    scripts = [code for language, code in fenced_blocks(text)
               if language == "sh"]
    assert scripts
    for command in (c for script in scripts for c in commands(script)):
        if command[0] == "thzlink":
            run_thzlink(command, tmp_path)
        else:
            assert shlex.join(command).startswith(NOT_RUN), command


def test_library_example_prints_two_finite_numbers(tmp_path):
    child = run(["-c", quick_start_blocks()["python"]], tmp_path)
    assert child.returncode == 0, child.stderr
    printed = [line.split() for line in child.stdout.splitlines()]
    assert [unit for _, unit in printed] == ["dB", "bits/s"]
    assert all(math.isfinite(float(value)) for value, _ in printed)


def claims():
    """(claim, command, printed) of each row of the Paper claims table."""
    rows = re.findall(r'^\| (".*") \| `(thzlink [^`]*)` \| (.*) \|$',
                      section("Paper claims"), re.M)
    assert len(rows) == 2
    return rows


def test_claims_quote_the_abstract():
    """Each quotation of the Paper claims section, its " ... " elisions
    apart, is the abstract's wording."""
    abstract = " ".join((ROOT / "PAPER.md").read_text("utf-8").split())
    text = " ".join(section("Paper claims").split())
    quotes = re.findall(r'"([^"]+)"', text)
    assert len(quotes) == 4
    for fragment in (f for quote in quotes for f in quote.split(" ... ")):
        assert fragment in abstract, fragment


def test_claims_table_numbers_are_what_its_commands_print(tmp_path):
    """Each row: the proposed model's capacity is lower in every CSV row
    of the command, the row count is the one stated, each "X % at V unit"
    is that row's 1 - C_proposed / C_conventional to the digit, the quoted
    capacities are its cells as printed, and the reduction rises or falls
    strictly along the axis, as stated."""
    for _, command, printed in claims():
        stdout = run_thzlink(shlex.split(command), tmp_path)
        header, *rows = csv.reader(io.StringIO(stdout))
        unit = header[0].rsplit("_", 1)[1]
        proposed, conventional = (
            [i for i, name in enumerate(header) if name.startswith(prefix)]
            for prefix in ("C_bps_proposed", "C_bps_conventional"))
        assert len(proposed) == len(conventional) == 1, header
        capacities = [(row[proposed[0]], row[conventional[0]])
                      for row in rows]
        reduction = [1.0 - float(c) / float(c0) for c, c0 in capacities]

        count = re.match(r"lower in all (\d+) rows, by ", printed)
        assert count and int(count[1]) == len(rows), printed
        assert all(r > 0 for r in reduction)
        quoted = re.findall(r"(\d+\.\d) % at (\S+) (\w+)(?: \((\S+) against "
                            r"(\S+) bits/s\))?", printed)
        assert len(quoted) == 2, printed
        for percent, value, value_unit, *cells in quoted:
            assert value_unit == unit, printed
            at = [i for i, row in enumerate(rows)
                  if float(row[0]) == float(value)]
            assert len(at) == 1, (value, unit)
            assert f"{100.0 * reduction[at[0]]:.1f}" == percent, printed
            if cells[0]:
                assert tuple(cells) == capacities[at[0]], printed
        trend = re.search(r" (rising|falling) to ", printed)
        assert trend, printed
        steps = [b - a for a, b in zip(reduction, reduction[1:])]
        sign = 1.0 if trend[1] == "rising" else -1.0
        assert all(sign * step > 0 for step in steps), trend[1]


def readme_paths():
    """Each repo-relative path the README names: a code span or link
    target outside its fenced blocks that holds a '/' or ends in a file
    extension, and each word of its sh blocks that holds a '/'."""
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.M | re.S)
    names = re.findall(r"`([^`\s]+)`", prose)
    names += re.findall(r"\]\(([^)\s]+)\)", prose)
    names = [name for name in names
             if "/" in name or re.search(r"\.(md|py|json|par|yml)$", name)]
    for language, code in fenced_blocks(README):
        if language == "sh":
            names += [word for command in commands(code) for word in command
                      if "/" in word]
    return sorted({name for name in names if "://" not in name})


def test_every_path_the_readme_names_exists():
    paths = readme_paths()
    assert {"src/thzlink/data/scenario_sample.json",
            "perfbench/README.md"} <= set(paths)
    missing = [path for path in paths if not (ROOT / path).exists()]
    assert not missing
