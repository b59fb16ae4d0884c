"""Counting homeomorphism classes of manifolds homotopy equivalent to
P^n and P^n # P^n, in explicit coordinates with desk-scale truncations.

The structure set of P^n is a sum of Z_2's plus one Z when n = 3 mod 4;
classes of P^n # P^n are unordered pairs of such coordinates crossed
with switch-orbits of the relevant UNil group.  Degree cutoffs and a
bound on the Z coordinate make every table finite.
"""

import csv
import io
import json
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement, product
from json.encoder import encode_basestring_ascii

from unilcalc.polynomials import compact_str
from unilcalc.unil import compact_literal, enumerate_truncated, orbit_count


# enumerate_J refuses a table with more rows than this before it enumerates
# anything.  A row costs a few hundred bytes until it is written out; the
# largest table the tests, README and benchmark use (classify 8
# --degree-cutoff 5) has 152,064 rows.
MAX_TABLE_ROWS = 2_000_000


@dataclass(frozen=True)
class StructureSetDescriptor:
    n: int
    m: int
    ell: int
    z2_count: int
    has_Z: bool

    def count(self, z_bound=0):
        if z_bound < 0:
            raise ValueError("z bound must be >= 0")
        base = 1 << self.z2_count
        if self.has_Z:
            return base * (2 * z_bound + 1)
        return base


def structure_set_P(n):
    """Descriptor of S(P^n): n = 4m + ell with 0 < ell <= 4."""
    if n <= 3:
        raise ValueError("dimension must exceed 3")
    m, ell = divmod(n - 1, 4)
    ell += 1
    desc = StructureSetDescriptor(n, m, ell, 2 * m + ell // 4, ell == 3)
    if desc.z2_count < 1 or desc.has_Z != (n % 4 == 3):
        raise RuntimeError(f"inconsistent structure-set descriptor {desc}")
    return desc


def structure_set_elements(desc, z_bound=0):
    """Truncated coordinate tuples in lexicographic order.

    A coordinate is a tuple of z2_count bits, with the Z value appended
    as a final entry when present (|z| <= z_bound).  ``product`` yields
    the bits in lexicographic order, so no sort is needed.
    """
    if z_bound < 0:
        raise ValueError("z bound must be >= 0")
    bits = product((0, 1), repeat=desc.z2_count)
    if not desc.has_Z:
        return tuple(bits)
    return tuple(b + (z,) for b in bits for z in range(-z_bound, z_bound + 1))


def coord_str(desc, coord):
    bits = "".join(str(c) for c in coord[: desc.z2_count])
    if desc.has_Z:
        return f"{bits}:{coord[-1]}"
    return bits


def _negate_coord(desc, coord):
    if not desc.has_Z:
        return coord
    return coord[:-1] + (-coord[-1],)


def bar_I(n, z_bound=0):
    """Count and representatives of the unoriented quotient of I_n.

    Negation acts trivially on the Z_2 summands, so only the Z
    coordinate (when present) is folded by z ~ -z.
    """
    desc = structure_set_P(n)
    elements = structure_set_elements(desc, z_bound)
    reps = tuple(e for e in elements if not desc.has_Z or e[-1] >= 0)
    return len(reps), reps


def relevant_unil(n):
    """Which UNil group obstructs splitting for P^n # P^n.

    Four-periodicity plus the sign-twisted two-semiperiodicity reduce
    every case to UNil_0 through UNil_3, of which only UNil_2 and
    UNil_3 are nonzero.
    """
    if n <= 3:
        raise ValueError("dimension must exceed 3")
    r = n % 4
    if r == 0:
        return "UNil3"
    if r == 1:
        return "UNil2"
    return "Zero"


@dataclass(frozen=True, slots=True)
class ManifoldClass:
    pair: tuple
    theta: object
    not_connected_sum: bool
    epsilon: int
    identified_with: str = ""

    def theta_str(self):
        if self.theta is None:
            return "0"
        if hasattr(self.theta, "arf_class"):
            return f"[{compact_str(self.theta.arf_class.rep)}]"
        return compact_literal(self.theta)


@dataclass(frozen=True)
class ClassificationTable:
    n: int
    degree_cutoff: int
    z_bound: int
    rows: tuple
    folded: bool = False

    @property
    def desc(self):
        return structure_set_P(self.n)


def table_row_count(n, degree_cutoff=0, z_bound=0):
    """The number of rows of enumerate_J(n, degree_cutoff, z_bound), in
    closed form: unordered pairs of structure-set coordinates times
    switch-orbits of the relevant UNil group."""
    coords = structure_set_P(n).count(z_bound)
    if degree_cutoff < 0:
        raise ValueError("degree cutoff must be >= 0")
    group = relevant_unil(n)
    orbits = 1 if group == "Zero" else orbit_count(group, degree_cutoff)
    return coords * (coords + 1) // 2 * orbits


def enumerate_J(n, degree_cutoff=0, z_bound=0):
    """The classification table for P^n # P^n under truncation.

    Rows are unordered pairs (with repetition) of structure-set
    coordinates crossed with switch-orbit representatives of the
    relevant UNil group; a row is flagged not_connected_sum when its
    theta-orbit is nonzero.
    """
    rows = table_row_count(n, degree_cutoff, z_bound)
    if rows > MAX_TABLE_ROWS:
        raise ValueError(f"the table would have {rows} rows, above the limit {MAX_TABLE_ROWS}")
    desc = structure_set_P(n)
    elements = structure_set_elements(desc, z_bound)
    group = relevant_unil(n)
    if group == "Zero":
        thetas = (None,)
    else:
        thetas = enumerate_truncated(group, degree_cutoff).orbit_reps
    flagged = [(theta, theta is not None and not theta.is_zero()) for theta in thetas]
    epsilon = (-1) ** (n + 1)
    rows = tuple(
        ManifoldClass(pair, theta, flag, epsilon)
        for pair in combinations_with_replacement(elements, 2)
        for theta, flag in flagged
    )
    return ClassificationTable(n, degree_cutoff, z_bound, rows)


def _row_texts(table):
    """Yield (row, pair_coord_1, pair_coord_2, theta) with the columns'
    text, rendering each distinct coordinate and theta of the table once.

    Thetas are looked up by identity, which is cheap where hashing a UNil
    element is not: the rows of a table share (and keep alive) the orbit
    representatives they were built from.
    """
    desc = table.desc
    coords = {}
    thetas = {}
    for row in table.rows:
        a, b = row.pair
        text_a = coords.get(a)
        if text_a is None:
            text_a = coords[a] = coord_str(desc, a)
        text_b = coords.get(b)
        if text_b is None:
            text_b = coords[b] = coord_str(desc, b)
        theta = thetas.get(id(row.theta))
        if theta is None:
            theta = thetas[id(row.theta)] = row.theta_str()
        yield row, text_a, text_b, theta


def bar_J(n, table):
    """Fold the table by simultaneous negation of both Z coordinates.

    Away from n = 3 mod 4 the map is a bijection and the table is
    returned unchanged.  Otherwise rows whose pairs differ by negating
    both Z entries (same theta) are identified; the surviving row is the
    lexicographically smaller one and records the partner it absorbed.
    """
    if n != table.n:
        raise ValueError("dimension does not match the table")
    if n % 4 != 3:
        return table
    desc = table.desc
    rows = list(_row_texts(table))
    # (pair, theta text) -> the pair's coordinate texts
    by_key = {(row.pair, theta): (a, b) for row, a, b, theta in rows}
    out = []
    seen = set()
    for row, _, _, theta in rows:
        key = (row.pair, theta)
        if key in seen:
            continue
        neg_pair = tuple(sorted(_negate_coord(desc, c) for c in row.pair))
        neg_key = (neg_pair, theta)
        seen.add(key)
        if neg_key == key:
            out.append(row)
            continue
        seen.add(neg_key)
        absorbed = ";".join(by_key[neg_key])
        out.append(ManifoldClass(row.pair, row.theta, row.not_connected_sum, row.epsilon, absorbed))
    return replace(table, rows=tuple(out), folded=True)


_COLUMNS = ("n", "pair_coord_1", "pair_coord_2", "theta", "not_connected_sum", "identified_with")


def table_rows_as_dicts(table):
    n = table.n
    for row, coord_1, coord_2, theta in _row_texts(table):
        yield {
            "n": n,
            "pair_coord_1": coord_1,
            "pair_coord_2": coord_2,
            "theta": theta,
            "not_connected_sum": row.not_connected_sum,
            "identified_with": row.identified_with,
        }


def table_to_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    n = table.n
    writer.writerows(
        (n, coord_1, coord_2, theta, int(row.not_connected_sum), row.identified_with)
        for row, coord_1, coord_2, theta in _row_texts(table)
    )
    return buf.getvalue()


def table_to_json_dict(table):
    return {
        "n": table.n,
        "degree_cutoff": table.degree_cutoff,
        "z_bound": table.z_bound,
        "epsilon": (-1) ** (table.n + 1),
        "folded": table.folded,
        "rows": list(table_rows_as_dicts(table)),
    }


# One row of json.dumps(..., sort_keys=True, indent=2) on a table_rows_as_dicts
# row, inside the top-level "rows" list.
_JSON_ROW = """\
    {
      "identified_with": %s,
      "n": %d,
      "not_connected_sum": %s,
      "pair_coord_1": %s,
      "pair_coord_2": %s,
      "theta": %s
    }"""


def table_json_text(doc):
    """json.dumps(doc, sort_keys=True, indent=2) for a table_to_json_dict
    payload, with the rows written from a fixed template.

    ``indent`` turns off json's C encoder, so dumping a large table costs
    one pure-Python call per token; here the header keys still go through
    json.dumps and each row costs one template fill.
    """
    head, tail = json.dumps({**doc, "rows": []}, sort_keys=True, indent=2).split('"rows": []')
    if not doc["rows"]:
        return f'{head}"rows": []{tail}'
    enc = encode_basestring_ascii
    body = ",\n".join(
        _JSON_ROW
        % (
            enc(r["identified_with"]),
            r["n"],
            "true" if r["not_connected_sum"] else "false",
            enc(r["pair_coord_1"]),
            enc(r["pair_coord_2"]),
            enc(r["theta"]),
        )
        for r in doc["rows"]
    )
    return f'{head}"rows": [\n{body}\n  ]{tail}'
