"""Checks on the package source itself."""

import ast
from pathlib import Path

import unilcalc

SRC = Path(unilcalc.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so invariants must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
