"""Command-line front end: quotient reductions, the switch map, Arf and
Witt checks on JSON forms, the bundled verification suite, and
classification tables with a content-addressed cache."""

import argparse
import hashlib
import json
import os
import random
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from unilcalc import __version__
from unilcalc.classify import (
    bar_J,
    enumerate_J,
    table_json_text,
    table_to_csv,
    table_to_json_dict,
)
from unilcalc.forms import (
    QuadraticFormTheta,
    generator_switch_chain,
    resolution_switch_chain,
    verify_chain,
)
from unilcalc.linking import (
    LinkingForm,
    Submodule,
    arf_even,
    find_lagrangian,
    is_even,
    sublagrangian_reduce,
    witt_four_term_instance,
)
from unilcalc.polynomials import (
    Polynomial,
    compact_str,
    idem_reduce,
    parse_poly,
    versch_reduce,
)
from unilcalc.unil import (
    B_coords,
    compact_literal,
    enumerate_truncated,
    n_class_combination,
    parse_unil3,
    pi_map,
    switch_unil3,
)


@dataclass(frozen=True)
class CommandResult:
    status: str  # pass | fail | value
    payload: dict
    elapsed: float = 0.0
    human: tuple = ()
    raw_output: str = None


_fmt_poly = compact_str
_fmt_unil3 = compact_literal


def _read_json(source):
    if source == "-":
        return json.load(sys.stdin)
    with open(source) as fh:
        return json.load(fh)


def _cmd_reduce(args):
    if args.kind == "idem":
        rep = idem_reduce(parse_poly(args.poly, "F2")).rep
    else:
        rep = versch_reduce(parse_poly(args.poly, "Z4")).rep
    out = _fmt_poly(rep)
    payload = {"kind": args.kind, "input": args.poly, "canonical": out}
    return CommandResult("value", payload, human=(out,))


def _cmd_sw(args):
    e = parse_unil3(args.element)
    out = _fmt_unil3(switch_unil3(e))
    return CommandResult("value", {"input": args.element, "switched": out}, human=(out,))


def _cmd_arf(args):
    form = LinkingForm.from_json_dict(_read_json(args.form))
    if not is_even(form):
        raise ValueError("the form is not even; the Arf invariant needs an even form")
    cls = arf_even(form)
    payload = {"rank": form.rank, "arf": str(cls), "zero": cls.is_zero()}
    return CommandResult("value", payload, human=(str(cls),))


def _check_jobs(args):
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")


def _cmd_witt_check(args):
    _check_jobs(args)
    data = _read_json(args.form)
    if not isinstance(data, dict):
        raise ValueError("witt-check input must be a JSON object")
    form = LinkingForm.from_json_dict(data["form"] if "form" in data else data)
    payload = {"rank": form.rank}
    if "sublagrangian" in data:
        S = Submodule.from_json_dict(data["sublagrangian"], form.rank)
        try:
            form = sublagrangian_reduce(form, S)
        except ValueError as exc:
            payload["error"] = str(exc)
            return CommandResult("fail", payload, human=(f"sublagrangian check failed: {exc}",))
        payload["reduced_rank"] = form.rank
    payload["even"] = is_even(form)
    if payload["even"] and form.rank % 2 == 0:
        cls = arf_even(form)
        payload["arf"] = str(cls)
        payload["arf_zero"] = cls.is_zero()
    L = find_lagrangian(form, args.bound, jobs=args.jobs)
    payload["lagrangian"] = None if L is None else Submodule.to_json_dict(L)["generators"]
    payload["witt_trivial_witness"] = L is not None
    lines = [f"{k} = {payload[k]}" for k in sorted(payload)]
    return CommandResult("value", payload, human=tuple(lines))


def _bit_polys(degree):
    for bits in range(1 << (degree + 1)):
        yield Polynomial("Z", tuple(bits >> k & 1 for k in range(degree + 1)))


def _fx_generator_chain(degree, corrupt):
    for i, p in enumerate(_bit_polys(degree)):
        start, script = generator_switch_chain(p)
        if corrupt and i == 0:
            theta = tuple(
                tuple(-c if (r, s) == (0, 1) else c for s, c in enumerate(row))
                for r, row in enumerate(start.theta)
            )
            start = QuadraticFormTheta(start.ring, theta, start.epsilon)
        report = verify_chain(start, script)
        yield f"p={_fmt_poly(p)}", report.ok, report.failure


def _fx_resolution_chain(degree, _corrupt):
    d = min(degree, 4)
    for p in _bit_polys(d):
        for g in _bit_polys(d):
            start, script = resolution_switch_chain(p, g)
            report = verify_chain(start, script)
            yield f"p={_fmt_poly(p)} g={_fmt_poly(g)}", report.ok, report.failure
            if not report.ok:
                return


def _fx_sublagrangian(degree, _corrupt, seed=0):
    for i, p in enumerate(_bit_polys(degree)):
        label = f"p={_fmt_poly(p)}"
        G, S = witt_four_term_instance(p)
        try:
            red = sublagrangian_reduce(G, S)
        except ValueError as exc:
            yield label, False, str(exc)
            return
        if red.rank != 4 or not is_even(red):
            yield label, False, f"reduction has rank {red.rank}, even={is_even(red)}"
            return
        cls = arf_even(red, rng=random.Random(seed * 100003 + i))
        yield label, cls.is_zero(), None if cls.is_zero() else f"arf = {cls}, expected 0"


def _fx_lagrangian_search(degree, _corrupt, jobs=1):
    for p in _bit_polys(min(degree, 2)):
        G, S = witt_four_term_instance(p)
        red = sublagrangian_reduce(G, S)
        L = find_lagrangian(red, 3, jobs=jobs)
        ok = L is not None
        yield f"p={_fmt_poly(p)}", ok, None if ok else "no lagrangian within degree bound 3"


def _fx_switch_laws(_degree, _corrupt):
    elements = enumerate_truncated("UNil3", 3).elements
    for e in elements:
        label = str(e)
        se = switch_unil3(e)
        if switch_unil3(se) != e:
            yield label, False, "sw applied twice is not the identity"
            return
        b1, b2 = B_coords(e)
        if B_coords(se) != (b1, b1 + b2):
            yield label, False, f"B(sw e) = {B_coords(se)}, expected ({b1}, {b1 + b2})"
            return
        if switch_unil3(e.doubled()) != e.doubled():
            yield label, False, "sw moved a multiple of two"
            return
        if (se == e) != pi_map(e.x).is_zero():
            yield label, False, "fixed-point criterion pi(x) = 0 violated"
            return
        yield label, True, None


def _fx_burnside(_degree, _corrupt):
    for group, dmax in (("UNil2", 4), ("UNil3", 4)):
        for d in range(dmax + 1):
            out = enumerate_truncated(group, d)
            orbits = {frozenset((e, switch_unil3(e))) for e in out.elements} if group == "UNil3" else {
                frozenset((e,)) for e in out.elements
            }
            ok = out.orbits == len(orbits) and 2 * out.orbits == out.total + out.fixed
            yield f"{group} d={d}", ok, None if ok else (
                f"orbit count {out.orbits} vs brute force {len(orbits)}"
            )
            if not ok:
                return


def _fx_dictionary(degree, _corrupt):
    t, one = Polynomial.t("Z"), Polynomial.one("Z")
    for p in _bit_polys(degree):
        tp = t * p
        total = n_class_combination([(1, t, p), (1, p, t), (-1, one, tp), (-1, tp, one)])
        ok = total.is_zero()
        yield f"p={_fmt_poly(p)}", ok, None if ok else f"four-term combination = {total}"


_FIXTURES = (
    ("generator_switch_chain", _fx_generator_chain),
    ("resolution_switch_chain", _fx_resolution_chain),
    ("four_term_sublagrangian", _fx_sublagrangian),
    ("lagrangian_search", _fx_lagrangian_search),
    ("switch_and_B_laws", _fx_switch_laws),
    ("burnside_orbits", _fx_burnside),
    ("verschiebung_dictionary", _fx_dictionary),
)


# verify-paper's sweeps run 2^(degree+1) instances each, so every degree
# doubles the run: degree 12 takes about 30 s on one x86_64 core
MAX_VERIFY_DEGREE = 12


def _cmd_verify_paper(args):
    if not 0 <= args.degree <= MAX_VERIFY_DEGREE:
        raise ValueError(f"--degree must be between 0 and {MAX_VERIFY_DEGREE}")
    _check_jobs(args)
    results = []
    all_ok = True
    for name, fn in _FIXTURES:
        kwargs = {}
        if name == "four_term_sublagrangian":
            kwargs["seed"] = args.seed
        if name == "lagrangian_search":
            kwargs["jobs"] = args.jobs
        count = 0
        failure = None
        for label, ok, msg in fn(args.degree, args.negative_control, **kwargs):
            count += 1
            if not ok:
                failure = {"instance": label, "message": msg}
                break
        results.append(
            {
                "name": name,
                "instances": count,
                "status": "pass" if failure is None else "fail",
                "failure": failure,
            }
        )
        if failure is not None:
            all_ok = False
    payload = {
        "version": __version__,
        "degree": args.degree,
        "seed": args.seed,
        "negative_control": args.negative_control,
        "fixtures": results,
        "status": "pass" if all_ok else "fail",
    }
    if args.report:
        Path(args.report).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    lines = []
    for r in results:
        if r["failure"] is None:
            lines.append(f"{r['name']}: PASS ({r['instances']} instances)")
        else:
            lines.append(
                f"{r['name']}: FAIL at {r['failure']['instance']}: {r['failure']['message']}"
            )
    lines.append("all fixtures passed" if all_ok else "verification FAILED")
    return CommandResult("pass" if all_ok else "fail", payload, human=tuple(lines))


def _source_digest():
    """sha256 over the package's Python sources, so that a table cached by
    one version of the code is never served to another."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(f"{path.name}\0{path.stat().st_size}\0".encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _write_atomic(path, data):
    """Write bytes to path through a temporary file in the same directory,
    so that a reader sees the old file or the whole new one, never a part."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _cache_read(cache_dir, digest, fmt):
    """The cached table for a key, or None.  An entry is named
    classify-<key digest>-<sha256 of its bytes>.<fmt>; an entry whose bytes
    do not match its name is deleted and counts as a miss."""
    for path in sorted(cache_dir.glob(f"classify-{digest}-*.{fmt}")):
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() == path.stem.rpartition("-")[2]:
            return data.decode()
        path.unlink(missing_ok=True)
    return None


def _cmd_classify(args):
    if args.n <= 3:
        raise ValueError("n > 3 required")
    key = json.dumps(
        {
            "cmd": "classify",
            "n": args.n,
            "degree_cutoff": args.degree_cutoff,
            "z_bound": args.z_bound,
            "bar": args.bar,
            "format": args.format,
            "version": __version__,
            "sources": _source_digest(),
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(key.encode()).hexdigest()
    cache_dir = os.environ.get("UNILCALC_CACHE_DIR")
    cache_dir = Path(cache_dir) if cache_dir else None
    text = _cache_read(cache_dir, digest, args.format) if cache_dir is not None else None
    cache_hit = text is not None
    if cache_hit:
        rows = None
    else:
        table = enumerate_J(args.n, args.degree_cutoff, args.z_bound)
        if args.bar:
            table = bar_J(args.n, table)
        if args.format == "csv":
            text = table_to_csv(table)
        else:
            text = table_json_text(table_to_json_dict(table)) + "\n"
        rows = len(table.rows)
        if cache_dir is not None:
            data = text.encode()
            sha = hashlib.sha256(data).hexdigest()
            _write_atomic(cache_dir / f"classify-{digest}-{sha}.{args.format}", data)
    if args.output:
        Path(args.output).write_text(text)
    payload = {"n": args.n, "cache_hit": cache_hit, "sha256": digest, "rows": rows}
    return CommandResult("value", payload, raw_output=None if args.output else text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="unilcalc",
        description="exact UNil / linking-form calculator for the infinite dihedral group",
    )
    parser.add_argument("--version", action="version", version=f"unilcalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="canonical representative in a polynomial quotient")
    p.add_argument("kind", choices=("idem", "versch"))
    p.add_argument("poly", help="polynomial, e.g. 't^4+t' or '2*t^2'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("sw", help="apply the switch involution to a UNil3 element")
    p.add_argument("element", help="literal like 'j1[t] + j2[t^2]' or '0'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_sw)

    p = sub.add_parser("arf", help="Arf invariant of an even linking form")
    p.add_argument("form", help="path to a JSON form, or - for stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_arf)

    p = sub.add_parser(
        "witt-check", help="sublagrangian reduction and lagrangian search on a JSON form"
    )
    p.add_argument("form", help="path to JSON {form, sublagrangian?}, or - for stdin")
    p.add_argument("--bound", type=int, default=2, help="degree bound for the search")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_witt_check)

    p = sub.add_parser("verify-paper", help="run the bundled verification fixtures")
    p.add_argument(
        "--degree",
        type=int,
        default=4,
        help=f"polynomial degree bound for sweeps, 0..{MAX_VERIFY_DEGREE}",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--negative-control", action="store_true", help="corrupt a fixture; must fail")
    p.add_argument("--report", metavar="PATH", help="write the JSON report here")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify_paper)

    p = sub.add_parser("classify", help="classification table for P^n # P^n")
    p.add_argument("n", type=int)
    p.add_argument("--degree-cutoff", type=int, default=0)
    p.add_argument("--z-bound", type=int, default=0)
    p.add_argument("--bar", action="store_true", help="fold by orientation reversal")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", metavar="PATH", help="write the table here instead of stdout")
    p.set_defaults(func=_cmd_classify)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        result = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = replace(result, elapsed=time.perf_counter() - t0)
    if result.raw_output is not None:
        sys.stdout.write(result.raw_output)
    elif getattr(args, "format", "text") == "json":
        doc = {"status": result.status, **result.payload}
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in result.human:
            print(line)
    print(f"elapsed: {result.elapsed:.3f}s", file=sys.stderr)
    return 0 if result.status != "fail" else 1
