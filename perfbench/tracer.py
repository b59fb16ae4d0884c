"""Run one unilcalc command with every layer's public functions traced.

    python3 perfbench/tracer.py SUMMARY_JSON -- ARGS...

runs ``unilcalc ARGS...`` in this process, exactly as ``python -m unilcalc
ARGS...`` would, and writes a per-layer summary to SUMMARY_JSON.  Nothing
inside the package is edited: each traced function is rebound, by identity,
in every unilcalc module namespace that holds it, and the methods in METHODS
are rebound on their classes.  Rebinding in every namespace matters because
the layers import names directly (``from unilcalc.kernels import gf2_mul``),
so patching the defining module alone would miss those calls; rebinding in
the defining module too catches its internal calls (find_lagrangian ->
eval_bq).  The kernels' implementation module is left alone, so calls made
inside a kernel are not counted as calls into the layer.

Each call records a span (name, start, end, parent) in flat in-memory
arrays.  After the command finishes, self time per span is its duration
minus the durations of its child spans, and the spans are summed per name.
"""

import importlib
import inspect
import json
import os
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# the layers, bottom up; kernels' functions live in the backend module
LAYERS = (
    "kernels",
    "polynomials",
    "funcfield",
    "f2linalg",
    "dihedral",
    "forms",
    "linking",
    "unil",
    "classify",
    "cli",
)
METHODS = {
    "polynomials": {"Polynomial.add": ("Polynomial", "__add__")},
    "dihedral": {"mul": ("DihedralElement", "__mul__"), "add": ("DihedralElement", "__add__")},
    "linking": {"LinkingForm.init": ("LinkingForm", "__post_init__")},
}
NO_PARENT = -1


class Recorder:
    """Spans in flat arrays plus the few counters that need a call's
    arguments or result."""

    def __init__(self):
        self.names = []  # span name by id
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [NO_PARENT]
        self.counters = {}

    def add(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name, fn, hook=None):
        sid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(name_of)
            name_of.append(sid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def current(self):
        """Name of the innermost open span, or None."""
        i = self.stack[-1]
        return None if i == NO_PARENT else self.names[self.name_of[i]]

    def summary(self):
        n = len(self.name_of)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i in range(n):
            p = self.parent[i]
            if p != NO_PARENT:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        incl_s = [0.0] * len(self.names)
        # inclusive time counts a span only when no enclosing span has the
        # same name, so recursion is not counted twice; spans are stored in
        # start order, so replaying them rebuilds the open-span stack
        open_spans = []
        active = [0] * len(self.names)
        for i in range(n):
            p = self.parent[i]
            while open_spans and open_spans[-1] != p:
                active[self.name_of[open_spans.pop()]] -= 1
            sid = self.name_of[i]
            calls[sid] += 1
            self_s[sid] += dur[i] - child[i]
            if not active[sid]:
                incl_s[sid] += dur[i]
            active[sid] += 1
            open_spans.append(i)
        return {
            "spans": n,
            "functions": {
                name: {"calls": calls[s], "self_s": self_s[s], "s": incl_s[s]}
                for s, name in enumerate(self.names)
                if calls[s]
            },
            "counters": self.counters,
        }


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if inspect.isgeneratorfunction(obj):
            continue  # a span would close before the generator runs
        if obj.__module__ == module.__name__:
            yield name, obj


def install(rec):
    """Rebind every traced function in every layer namespace."""
    modules = {layer: importlib.import_module(f"unilcalc.{layer}") for layer in LAYERS}
    kernels = modules["kernels"]
    impl = sys.modules[kernels.gf2_mul.__module__]
    hooks = _hooks(rec)
    replace = {}  # id(original) -> wrapper
    for layer, module in modules.items():
        if layer == "kernels":
            found = [
                (name, obj)
                for name, obj in vars(module).items()
                if not name.startswith("_") and getattr(obj, "__module__", None) == impl.__name__
                and callable(obj)
            ]
        else:
            found = list(_public_functions(module))
        for name, obj in found:
            full = f"{layer}.{name}"
            replace[id(obj)] = rec.wrap(full, obj, hooks.get(full))
        for label, (cls_name, attr) in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            full = f"{layer}.{label}"
            setattr(cls, attr, rec.wrap(full, getattr(cls, attr), hooks.get(full)))
    for module in modules.values():
        ns = vars(module)
        for name, obj in list(ns.items()):
            wrapper = replace.get(id(obj))
            if wrapper is not None:
                ns[name] = wrapper
    return modules


def _hooks(rec):
    def operand_bits(args, _result):
        rec.add("kernels.operand_bits", sum(a.bit_length() for a in args if isinstance(a, int)))

    def eval_bq(args, result):
        # a candidate row is q-tested as eval_bq(form, row, row) inside the
        # lagrangian search
        if rec.current() == "linking.find_lagrangian" and args[1] is args[2]:
            rec.add("linking.eval_bq.q_tried")
            if result[1] == (0, 0):
                rec.add("linking.eval_bq.q_zero")

    def find_lagrangian(_args, result):
        rec.add("linking.find_lagrangian.found", result is not None)

    def factor(args, _result):
        deg = args[0].bit_length() - 1
        rec.counters["funcfield.factor.max_deg"] = max(rec.counters.get("funcfield.factor.max_deg", 0), deg)

    def enumerate_truncated(_args, result):
        rec.add("unil.elements", len(result.elements))

    def table_rows(args, _result):
        rec.add("classify.rows", len(args[0].rows))

    hooks = {
        "linking.eval_bq": eval_bq,
        "linking.find_lagrangian": find_lagrangian,
        "funcfield.factor": factor,
        "unil.enumerate_truncated": enumerate_truncated,
        "classify.table_to_csv": table_rows,
        "classify.table_to_json_dict": table_rows,
    }
    for name in ("gf2_deg", "gf2_mul", "gf2_divmod", "gf2_mod", "gf2_gcd", "gf2_spread",
                 "gf2_cross_square", "z4_add", "z4_neg", "z4_mul", "z4_sq_lift"):
        hooks[f"kernels.{name}"] = operand_bits
    return hooks


def main(argv):
    out_path, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SUMMARY_JSON -- ARGS...")
    rec = Recorder()
    modules = install(rec)
    t0 = time.perf_counter()
    try:
        status = modules["cli"].main(args)
    finally:
        sys.stdout.flush()
        wall = time.perf_counter() - t0
        summary = rec.summary()
        summary["wall_s"] = wall
        summary["backend"] = modules["kernels"].BACKEND
        summary["cache_dir"] = bool(os.environ.get("UNILCALC_CACHE_DIR"))
        Path(out_path).write_text(json.dumps(summary, sort_keys=True))
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
