"""Command-line front end: quotient reductions, the switch map, Arf and
Witt checks on JSON forms, the bundled verification suite, and
classification tables with a content-addressed cache."""

import argparse
import json
import os
import sys
import time

from unilcalc import __version__
from unilcalc._record import Record

# Each command imports the layers it runs in the first lines of its body,
# so that start-up, which dominates the small commands, loads only those.
# No command imports dataclasses (with inspect, ast, dis and tokenize, about
# 10 ms); the records are _record.Record subclasses.  With bytecode writing
# off (PYTHONDONTWRITEBYTECODE=1), the next start-up cost is compiling the
# imported sources on every run.  arf on an even form compiles neither
# f2linalg nor the lagrangian search, which witt-check adds (README,
# Layout, gives the times).


class CommandResult(Record):
    """status: pass | fail | value; payload: the JSON document; human: the
    lines of text output; notes: lines for stderr, before the elapsed time;
    streamed: the command wrote its own stdout."""

    _fields = ("status", "payload", "human", "notes", "streamed")

    def __init__(self, status, payload, human=(), notes=(), streamed=False):
        super().__init__(status, payload, human, notes, streamed)


def _read_json(source):
    try:
        if source == "-":
            return json.load(sys.stdin)
        with open(source) as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _cmd_reduce(args):
    from unilcalc.polynomials import idem_reduce, parse_f2, parse_z4, render, versch_reduce

    if args.kind == "idem":
        rep = idem_reduce(parse_f2(args.poly))
    else:
        rep = versch_reduce(*parse_z4(args.poly))
    out = render(rep, compact=True)
    payload = {"kind": args.kind, "input": args.poly, "canonical": out}
    return CommandResult("value", payload, human=(out,))


def _cmd_sw(args):
    from unilcalc.unil import parse_unil3, switch_unil3

    e = parse_unil3(args.element)
    out = switch_unil3(e).literal(compact=True)
    return CommandResult("value", {"input": args.element, "switched": out}, human=(out,))


def _cmd_arf(args):
    from unilcalc.linking import LinkingForm, arf_even, is_even
    from unilcalc.polynomials import render

    form = LinkingForm.from_json_dict(_read_json(args.form))
    if not is_even(form):
        raise ValueError("the form is not even; the Arf invariant needs an even form")
    bits = arf_even(form)
    text = render(bits)
    payload = {"rank": form.rank, "arf": text, "zero": bits == 0}
    return CommandResult("value", payload, human=(text,))


def _cmd_witt_check(args):
    from unilcalc.lagrangian import Submodule, find_lagrangian, sublagrangian_reduce
    from unilcalc.linking import LinkingForm, arf_even, is_even
    from unilcalc.polynomials import render

    if args.bound < 0:
        raise ValueError("the degree bound must be non-negative")
    data = _read_json(args.form)
    if not isinstance(data, dict):
        raise ValueError("witt-check input must be a JSON object")
    form = LinkingForm.from_json_dict(data["form"] if "form" in data else data)
    payload = {"rank": form.rank}
    if "sublagrangian" in data:
        S = Submodule.from_json_dict(data["sublagrangian"], form)
        try:
            form = sublagrangian_reduce(form, S)
        except ValueError as exc:
            payload["error"] = str(exc)
            return CommandResult("fail", payload, human=(f"sublagrangian check failed: {exc}",))
        payload["reduced_rank"] = form.rank
    payload["even"] = is_even(form)
    if payload["even"] and form.rank % 2 == 0:
        bits = arf_even(form)
        payload["arf"] = render(bits)
        payload["arf_zero"] = bits == 0
    # a form with a lagrangian is 0 in the Witt group, so a nonzero Arf class
    # rules one out at every bound (Connolly-Davis, Geom. Topol. 8, 2004)
    L = None
    if payload.get("arf_zero", True):
        L = find_lagrangian(form, args.bound)
    payload["lagrangian"] = None if L is None else Submodule.to_json_dict(L)["generators"]
    payload["witt_trivial_witness"] = L is not None
    lines = [f"{k} = {payload[k]}" for k in sorted(payload)]
    return CommandResult("value", payload, human=tuple(lines))


# verify-paper's sweeps run 2^(degree+1) instances each, so every degree
# doubles the run: degree 12 takes 4.4-4.7 s (the --report seconds of four
# runs) on one core of a 2-vCPU x86_64 VM (Intel Xeon) with CPython 3.11.7,
# most of it in four_term_sublagrangian
MAX_VERIFY_DEGREE = 12


def _cmd_verify_paper(args):
    from unilcalc.fixtures import FIXTURES

    if not 0 <= args.degree <= MAX_VERIFY_DEGREE:
        raise ValueError(f"--degree must be between 0 and {MAX_VERIFY_DEGREE}")
    results = []
    seconds = []  # wall time per fixture, for the report only
    all_ok = True
    for name, fn in FIXTURES:
        count = 0
        failure = None
        t0 = time.perf_counter()
        for label, ok, msg in fn(args.degree, args.negative_control):
            count += 1
            if not ok:
                failure = {"instance": label, "message": msg}
                break
        seconds.append(time.perf_counter() - t0)
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
        # stdout and the JSON payload stay byte-deterministic; the timings
        # go to the report alone
        report = dict(
            payload, fixtures=[dict(r, seconds=round(s, 6)) for r, s in zip(results, seconds)]
        )
        with open(args.report, "w") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
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
    import hashlib
    from pathlib import Path

    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(f"{path.name}\0{path.stat().st_size}\0".encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# bytes per read when a cache entry is hashed or copied
_COPY_BYTES = 1 << 16


def _cache_write(cache_dir, digest, fmt, chunks):
    """Write a table's text chunks to the cache, hashing them on the way, as
    classify-<key digest>-<sha256 of the bytes>.<fmt>.  The bytes go to a
    temporary file in the same directory that is then renamed, so that a
    reader sees a whole entry or none."""
    import hashlib

    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = cache_dir / f".classify-{digest}.{os.getpid()}.tmp"
    h = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                data = chunk.encode()
                h.update(data)
                fh.write(data)
        os.replace(tmp, cache_dir / f"classify-{digest}-{h.hexdigest()}.{fmt}")
    finally:
        tmp.unlink(missing_ok=True)


def _cache_read(cache_dir, digest, fmt):
    """The cached table for a key as a binary file rewound to its start, or
    None.  An entry is opened once and hashed in full before any of its bytes
    is served, so what is served is what was hashed; an entry whose bytes do
    not match the sha256 in its name is deleted and counts as a miss."""
    import hashlib

    for path in sorted(cache_dir.glob(f"classify-{digest}-*.{fmt}")):
        fh = open(path, "rb")
        h = hashlib.sha256()
        try:
            while data := fh.read(_COPY_BYTES):
                h.update(data)
        except OSError:
            fh.close()
            raise
        if h.hexdigest() == path.stem.rpartition("-")[2]:
            fh.seek(0)
            return fh
        fh.close()
        path.unlink(missing_ok=True)
    return None


def _write_out(path, chunks):
    """Write text chunks to the file at path, or to stdout when path is empty."""
    if not path:
        sys.stdout.writelines(chunks)
        return
    with open(path, "w") as dest:
        dest.writelines(chunks)


def _cmd_classify(args):
    import codecs
    import hashlib
    from pathlib import Path

    from unilcalc.classify import bar_J, enumerate_J, table_row_count, table_to_csv, table_to_json

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
    entry = _cache_read(cache_dir, digest, args.format) if cache_dir is not None else None
    cache_hit = entry is not None
    if cache_hit:
        count = table_row_count(args.n, args.degree_cutoff, args.z_bound, args.bar)
    else:
        table = enumerate_J(args.n, args.degree_cutoff, args.z_bound)
        if args.bar:
            table = bar_J(args.n, table)
        count = len(table.rows)
        chunks = table_to_csv(table) if args.format == "csv" else table_to_json(table)
        if cache_dir is not None:
            # the table is written to the cache first and then served from
            # it, as a hit is, so a failed write prints no table
            _cache_write(cache_dir, digest, args.format, chunks)
            entry = _cache_read(cache_dir, digest, args.format)
            if entry is None:
                raise OSError(f"the cache entry for key {digest} vanished after it was written")
    if entry is None:
        _write_out(args.output, chunks)
    else:
        with entry:
            data = iter(lambda: entry.read(_COPY_BYTES), b"")
            _write_out(args.output, codecs.iterdecode(data, "utf-8"))
    state = "off" if cache_dir is None else "hit" if cache_hit else "miss"
    payload = {"n": args.n, "cache_hit": cache_hit, "sha256": digest, "rows": count}
    note = f"classify: cache {state}, key {digest[:16]}, {count} rows"
    return CommandResult("value", payload, notes=(note,), streamed=not args.output)


def _add_jobs_argument(p):
    p.add_argument(
        "--jobs",
        type=int,
        choices=(1,),
        default=1,
        help="the search runs in one process; kept so that old command lines still parse",
    )


def _reduce_arguments(p):
    p.add_argument("kind", choices=("idem", "versch"))
    p.add_argument("poly", help="polynomial, e.g. 't^4+t' or '2*t^2'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_reduce)


def _sw_arguments(p):
    p.add_argument("element", help="literal like 'j1[t] + j2[t^2]' or '0'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_sw)


def _arf_arguments(p):
    p.add_argument("form", help="path to a JSON form, or - for stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_arf)


def _witt_check_arguments(p):
    p.add_argument("form", help="path to JSON {form, sublagrangian?}, or - for stdin")
    p.add_argument("--bound", type=int, default=2, help="degree bound for the search")
    _add_jobs_argument(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_witt_check)


def _verify_paper_arguments(p):
    p.add_argument(
        "--degree",
        type=int,
        default=4,
        help=f"polynomial degree bound for sweeps, 0..{MAX_VERIFY_DEGREE}",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="recorded in the JSON output and the report; no fixture draws random numbers",
    )
    _add_jobs_argument(p)
    p.add_argument("--negative-control", action="store_true", help="corrupt a fixture; must fail")
    p.add_argument("--report", metavar="PATH", help="write the JSON report here")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify_paper)


def _classify_arguments(p):
    p.add_argument("n", type=int)
    p.add_argument("--degree-cutoff", type=int, default=0)
    p.add_argument("--z-bound", type=int, default=0)
    p.add_argument("--bar", action="store_true", help="fold by orientation reversal")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", metavar="PATH", help="write the table here instead of stdout")
    p.set_defaults(func=_cmd_classify)


# (name, help, the function that adds the subcommand's arguments), in the
# order --help lists them
_COMMANDS = (
    ("reduce", "canonical representative in a polynomial quotient", _reduce_arguments),
    ("sw", "apply the switch involution to a UNil3 element", _sw_arguments),
    ("arf", "Arf invariant of an even linking form", _arf_arguments),
    (
        "witt-check",
        "sublagrangian reduction and lagrangian search on a JSON form",
        _witt_check_arguments,
    ),
    ("verify-paper", "run the bundled verification fixtures", _verify_paper_arguments),
    ("classify", "classification table for P^n # P^n", _classify_arguments),
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="unilcalc",
        description="exact UNil / linking-form calculator for the infinite dihedral group",
    )
    parser.add_argument("--version", action="version", version=f"unilcalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments in _COMMANDS:
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        result = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    if result.streamed:
        pass  # the table is already on stdout
    elif getattr(args, "format", "text") == "json":
        doc = {"status": result.status, **result.payload}
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in result.human:
            print(line)
    for line in result.notes:
        print(line, file=sys.stderr)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return 0 if result.status != "fail" else 1
