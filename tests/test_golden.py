"""Golden stdout and exit status of every command.

Each case runs one command line through cli.main and compares its exit
status, its stdout and its stderr "error:" lines, byte for byte, with
tests/golden_stdout.json.  The
commands with a text output run in text and in --format json; classify runs
in csv and json.  The JSON inputs of arf and witt-check are spelled out here
as text, with shorthand, negative and a/b coefficients, so that the cases
depend on no library code.
"""

import json
from pathlib import Path

import pytest

from unilcalc.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_stdout.json").read_text())
INPUT = "{input}"

HYPERBOLIC_NONZERO_ARF = {"rank": 2, "b_num": [["0", "1"], ["1", "0"]], "q_num": ["-2*t+4", "6/3"]}
HYPERBOLIC_ZERO_ARF = {"rank": 2, "b_num": [["0", "1"], ["1", "0"]], "q_num": ["2*t^2", "-4"]}
# the four-term instance of witt_four_term_instance(t) with its standard
# sublagrangian
FOUR_TERM = {
    "form": {
        "rank": 8,
        "b_num": [
            ["t", "1", "0", "0", "0", "0", "0", "0"],
            ["1", "0", "0", "0", "0", "0", "0", "0"],
            ["0", "0", "3*t", "1", "0", "0", "0", "0"],
            ["0", "0", "1", "0", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "1", "-1", "0", "0"],
            ["0", "0", "0", "0", "1", "0", "0", "0"],
            ["0", "0", "0", "0", "0", "0", "t^2", "1"],
            ["0", "0", "0", "0", "0", "0", "1", "2*t"],
        ],
        "q_num": ["t", "2*t", "-3*t", "2*t", "-1", "2*t^2", "-t^2", "2"],
    },
    "sublagrangian": {
        "generators": [
            ["0", "1", "0", "1", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0", "1", "0", "t"],
        ]
    },
}

# name -> (argv, JSON input or None); INPUT in argv names the input file
COMMANDS = {
    "reduce-idem": (["reduce", "idem", "3*t^4-t^6-6/2*t^3+t^5+1"], None),
    "reduce-idem-zero": (["reduce", "idem", "t^4 - t"], None),
    "reduce-versch": (["reduce", "versch", "9/3*t^3-2*t^4-t^2+2*t"], None),
    "reduce-versch-constant": (["reduce", "versch", "1+t"], None),
    "reduce-parse-error": (["reduce", "idem", "  t^2+t^^3"], None),
    "sw": (["sw", "j1[-t^3+2*t^2] + j2[t]"], None),
    "sw-zero": (["sw", "0"], None),
    "sw-parse-error": (["sw", "j1[t] + j2[t+1/2*t^2]"], None),
    "arf-nonzero": (["arf", INPUT], HYPERBOLIC_NONZERO_ARF),
    "arf-zero": (["arf", INPUT], HYPERBOLIC_ZERO_ARF),
    "witt-check-sublagrangian": (["witt-check", INPUT, "--bound", "2"], FOUR_TERM),
    "witt-check-bad-sublagrangian": (
        ["witt-check", INPUT],
        {"form": HYPERBOLIC_ZERO_ARF, "sublagrangian": {"generators": [["1", "1"]]}},
    ),
    "witt-check-no-sublagrangian": (["witt-check", INPUT, "--bound", "1"], HYPERBOLIC_ZERO_ARF),
    "witt-check-nonzero-arf": (["witt-check", INPUT, "--bound", "3"], HYPERBOLIC_NONZERO_ARF),
    "verify-paper": (["verify-paper", "--degree", "2"], None),
    "verify-paper-negative-control": (["verify-paper", "--degree", "2", "--negative-control"], None),
}
CASES = {}
for _name, (_argv, _doc) in COMMANDS.items():
    CASES[_name] = (_argv, _doc)
    CASES[f"{_name}-json"] = (_argv + ["--format", "json"], _doc)
CASES.update(
    {
        "classify-unil3-csv": (["classify", "4", "--degree-cutoff", "2"], None),
        "classify-unil3-json": (["classify", "4", "--degree-cutoff", "1", "--format", "json"], None),
        "classify-unil2-csv": (["classify", "5", "--degree-cutoff", "3"], None),
        "classify-bar-csv": (["classify", "7", "--z-bound", "1", "--bar"], None),
        "classify-bar-json": (["classify", "7", "--bar", "--format", "json"], None),
    }
)


def run_case(name, tmp_path, capsys):
    """The exit status, stdout and stderr error lines of the case's command
    line, as they are recorded in the golden file."""
    argv, doc = CASES[name]
    if doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == INPUT else a for a in argv]
    code = main(argv)
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    return {"exit": code, "stdout": out, "errors": errors}


def test_cases_match_the_golden_file():
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_exit_status(capsys, tmp_path, monkeypatch, name):
    monkeypatch.delenv("UNILCALC_CACHE_DIR", raising=False)
    assert run_case(name, tmp_path, capsys) == GOLDEN[name]
