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


def _imports(nodes):
    """(name, line) of every name the import statements among nodes bind."""
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno


def _unused_imports(tree):
    """(line, name) of every imported name its scope never reads: a
    module-level import is checked against the whole module, and an import
    anywhere in a function body against that function."""
    functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = set()
    for imports, scope in [(tree.body, tree)] + [(ast.walk(f), f) for f in functions]:
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        found.update((line, name) for name, line in _imports(imports) if name not in used)
    return sorted(found)


def test_unused_import_check_sees_function_bodies():
    source = "import os\n\ndef f():\n    import sys\n    from json import dumps\n    return dumps\n"
    assert _unused_imports(ast.parse(source)) == [(1, "os"), (4, "sys")]


def test_module_imports_are_used():
    # kernels.py is the declared re-export point for the kernel functions
    found = [
        f"{path.parent.name}/{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
        if path.name != "kernels.py"
        for line, name in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"unused imports: {found}"
