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


def test_package_holds_only_python_sources():
    # the classify cache is keyed on the package's *.py files alone
    # (cli._source_digest), so a compiled or generated module here could
    # change the answers without changing the cache key
    found = sorted(
        path.name for path in SRC.iterdir() if path.name != "__pycache__" and path.suffix != ".py"
    )
    assert not found, f"non-Python files in the package: {found}"
