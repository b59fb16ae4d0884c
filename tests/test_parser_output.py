"""What the argument parser prints: --version, --help, each subcommand's
--help, an unknown or missing command, and the usage errors of each
subcommand and of the top level.

cli.main builds only the subcommand parser that argv names.  Each case is
checked twice: against the same command line parsed by a parser with every
subcommand built, and, on the Python minor version they were recorded with,
against the bytes in tests/parser_output.json, which were recorded from the
parser that built all six subcommand parsers for every command line.
argparse's wording changes between Python versions, which is why the
recording is compared on its own version only.
"""

import json
import sys
from pathlib import Path

import pytest

from unilcalc import cli

RECORDED = json.loads((Path(__file__).parent / "parser_output.json").read_text())

# name -> argv; none of them runs a command body
CASES = {
    "version": ["--version"],
    "help": ["--help"],
    "help-short": ["-h"],
    "no-command": [],
    "unknown-command": ["bogus"],
    "unknown-command-like-one": ["classif", "8"],
    "top-level-unknown-option": ["--bogus"],
    "top-level-unknown-option-before-command": ["--bogus", "classify", "8"],
    "negative-number-as-command": ["-5", "classify"],
    "separator-then-command": ["--", "classify", "x"],
    "version-before-command": ["--version", "classify", "8"],
    "help-before-command": ["-h", "classify", "8"],
    "reduce-help": ["reduce", "--help"],
    "reduce-missing": ["reduce"],
    "reduce-bad-kind": ["reduce", "foo", "t"],
    "reduce-extra": ["reduce", "idem", "t", "t"],
    "reduce-bad-format": ["reduce", "idem", "t", "--format", "xml"],
    "reduce-unknown-option": ["reduce", "idem", "t", "--bogus"],
    "sw-help": ["sw", "-h"],
    "sw-missing": ["sw"],
    "sw-unknown-option": ["sw", "0", "--bogus"],
    "arf-help": ["arf", "--help"],
    "arf-missing": ["arf"],
    "arf-bad-format": ["arf", "-", "--format"],
    "witt-check-help": ["witt-check", "--help"],
    "witt-check-missing": ["witt-check"],
    "witt-check-bad-bound": ["witt-check", "-", "--bound", "x"],
    "witt-check-jobs-two": ["witt-check", "-", "--jobs", "2"],
    "verify-paper-help": ["verify-paper", "--help"],
    "verify-paper-bad-degree": ["verify-paper", "--degree", "x"],
    "verify-paper-extra": ["verify-paper", "extra"],
    "verify-paper-abbreviated-option": ["verify-paper", "--deg"],
    "classify-help": ["classify", "--help"],
    "classify-missing": ["classify"],
    "classify-bad-n": ["classify", "x"],
    "classify-bad-format": ["classify", "8", "--format", "xml"],
    "classify-unknown-option": ["classify", "8", "--bogus"],
    "classify-another-command-name": ["classify", "sw"],
}


def _outcome(capsys, parse, argv):
    try:
        parse(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return {"code": code, "stdout": out, "stderr": err}


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    # argparse wraps help and usage to the terminal width
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("name", sorted(CASES))
def test_parser_output(capsys, name):
    argv = CASES[name]
    got = _outcome(capsys, cli.main, argv)
    assert got["code"] is not None, "the case ran a command"
    full = _outcome(capsys, lambda a: cli._build_parser([]).parse_args(a), argv)
    assert got == full
    if RECORDED["python"] == "%d.%d" % sys.version_info[:2]:
        case = RECORDED["cases"][name]
        assert case["argv"] == argv
        assert got == {k: case[k] for k in ("code", "stdout", "stderr")}


def test_recording_covers_the_cases():
    assert sorted(RECORDED["cases"]) == sorted(CASES)


def test_only_the_named_parser_is_built(monkeypatch):
    built = []

    def recording(name, add_arguments):
        def add(p):
            built.append(name)
            add_arguments(p)

        return add

    commands = tuple((name, text, recording(name, add)) for name, text, add in cli._COMMANDS)
    monkeypatch.setattr(cli, "_COMMANDS", commands)
    cli._build_parser(["sw", "0"])
    assert built == ["sw"]
    built.clear()
    cli._build_parser(["-h"])
    assert built == [name for name, _, _ in commands]
