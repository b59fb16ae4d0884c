"""The README's self-contained command-line examples print what it shows.

Each fenced block of README.md holds ``$ unilcalc ...`` lines, each followed
by the stdout shown for it.  A ``...`` line elides the middle of the
output: the lines above it must open stdout and the lines below it must
close it.  A trailing ``| head -N`` keeps the first N lines.  The examples
that read an input file the README does not give (``arf form.json``,
``witt-check instance.json``) are not run.
"""

import re
import shlex
from pathlib import Path

import pytest

from unilcalc.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()

SELF_CONTAINED = (
    'unilcalc reduce idem "t^4+t"',
    'unilcalc reduce versch "2*t^2"',
    'unilcalc sw "j1[t]"',
    'unilcalc sw "j1[2*t]"',
    "unilcalc classify 4 --degree-cutoff 1 | head -3",
    "unilcalc verify-paper --degree 4 --report report.json",
)


def readme_examples():
    """{command line: the output lines shown under it}, from every fenced
    block of README.md."""
    examples = {}
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README, re.M | re.S):
        command = None
        for line in block.splitlines():
            if line.startswith("$ "):
                command = line[2:]
                examples[command] = []
            elif command is not None:
                examples[command].append(line)
    return examples


def test_every_self_contained_example_is_in_the_readme():
    assert set(SELF_CONTAINED) <= set(readme_examples())


@pytest.mark.parametrize("command", SELF_CONTAINED)
def test_example_prints_what_the_readme_shows(capsys, tmp_path, monkeypatch, command):
    monkeypatch.delenv("UNILCALC_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    shown = readme_examples()[command]
    line, _, head = command.partition(" | head -")
    argv = shlex.split(line)[1:]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    if head:
        out = out[: int(head)]
    if "..." in shown:
        cut = shown.index("...")
        above, below = shown[:cut], shown[cut + 1 :]
        assert out[: len(above)] == above
        assert out[len(out) - len(below) :] == below
    else:
        assert out == shown
