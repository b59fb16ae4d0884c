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


# The functions the package keeps for the paper's API with no caller in the
# package: the paper's generators and chains, which the tests and README use,
# and the JSON round-trips (README, Layout, names them).
API = {
    "make_N",
    "witt_four_term_instance",
    "standard_resolution",
    "resolution_switch_chain",
    "resolution_to_linking",
    "to_json_dict",
    "from_json_dict",
}
# methods perfbench/tracer.py rebinds on their classes by name
TRACED = (("polynomials", "Polynomial", "__add__"), ("linking", "LinkingForm", "__post_init__"))


class _References(ast.NodeVisitor):
    """The names and attribute names a module refers to.  A Name that is a
    parameter of an enclosing function or lambda refers to that parameter,
    so it is left out."""

    def __init__(self):
        self.names, self.attrs, self._params = set(), set(), []

    def visit_FunctionDef(self, node):
        args = node.args
        every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        self._params.append({a.arg for a in every if a})
        self.generic_visit(node)
        self._params.pop()

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef

    def visit_Name(self, node):
        if not any(node.id in params for params in self._params):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        self.attrs.add(node.attr)
        self.generic_visit(node)


def _uncalled(trees):
    """(file, line, name) of every function or method defined in trees, a
    dict from file name to module AST, that no code there refers to and
    that is neither a dunder method nor in API.  A module-level or nested
    function is referred to by a Name, a method by an attribute or by a
    Name in its class body (``__str__ = literal``)."""
    refs = _References()
    for tree in trees.values():
        refs.visit(tree)
    found = []
    for file, tree in trees.items():
        methods = {
            id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for f in cls.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name in API or (name.startswith("__") and name.endswith("__")):
                continue
            if name not in refs.names and not (id(node) in methods and name in refs.attrs):
                found.append((file, node.lineno, name))
    return found


def test_uncalled_check_sees_functions_and_methods():
    source = (
        "def used():\n    pass\n\ndef unused():\n    used()\n\n"
        "class C:\n    def m(self):\n        pass\n\n    def n(self):\n        pass\n\n"
        "    def __add__(self, o):\n        pass\n\n    alias = n\n\n"
        "def make_N():\n    C().m\n"
    )
    assert _uncalled({"x.py": ast.parse(source)}) == [("x.py", 4, "unused")]
    # a module-level function is not called by an attribute or a parameter
    # of the same name
    source = "def rank(m):\n    pass\n\ndef f(form, rank):\n    return form.rank + rank\n"
    assert _uncalled({"x.py": ast.parse(source)}) == [("x.py", 1, "rank"), ("x.py", 4, "f")]


def test_every_function_has_a_caller_in_the_package():
    # the package holds what the commands run and the paper's API; a
    # function only the tests call belongs in tests/helpers_oracles.py
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    found = [f"{file}:{line} {name}" for file, line, name in _uncalled(trees)]
    assert not found, f"functions with no caller in the package: {found}"


def test_api_functions_exist():
    import importlib

    defined = {
        node.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    assert API <= defined
    for module, cls, method in TRACED:
        assert method in vars(getattr(importlib.import_module(f"unilcalc.{module}"), cls))
