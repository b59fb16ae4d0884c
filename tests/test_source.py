"""Checks on the package source itself."""

import ast
from pathlib import Path

import unilcalc

SRC = Path(unilcalc.__file__).parent
TESTS = Path(__file__).parent


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


def _unused_module_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_module_imports_are_used():
    # kernels.py is the declared re-export point for the kernel functions
    found = [
        f"{path.parent.name}/{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
        if path.name != "kernels.py"
        for line, name in _unused_module_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"unused module-level imports: {found}"
