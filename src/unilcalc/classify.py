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
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, combinations_with_replacement, islice, product
from json.encoder import encode_basestring_ascii

from unilcalc.unil import compact_literal, orbit_count, orbit_reps


# enumerate_J refuses a table with more rows than this.  Rows are made and
# written a chunk at a time, so the limit bounds the time and the size of the
# output, not memory: at about 4 us (one x86_64 core) and 50 bytes of CSV or
# 200 of JSON a row, the largest admitted table takes about 8 s and writes up
# to 400 MB.  The largest table the tests, README and benchmark use (classify
# 8 --degree-cutoff 5) has 152,064 rows.
MAX_TABLE_ROWS = 2_000_000

# rows per chunk of written output
CHUNK_ROWS = 4096


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


Row = namedtuple(
    "Row", ("pair_coord_1", "pair_coord_2", "theta", "not_connected_sum", "identified_with")
)
Row.__doc__ = """One table row as it is written: the pair's coordinates and the theta
orbit as text, whether the class is not a connected sum, and the pair a
folded row absorbed ("" when none)."""


class TableRows:
    """The rows of a table, made afresh on each iteration, so that no table
    holds them; len() is the closed-form count.

    A row is a pair of structure-set coordinates crossed with a theta
    orbit.  Each coordinate and each theta is rendered once per table.
    """

    def __init__(self, table):
        self.table = table
        self._len = table_row_count(table.n, table.degree_cutoff, table.z_bound, table.folded)

    def __len__(self):
        return self._len

    @cached_property
    def _thetas(self):
        """The text of each switch-orbit of the UNil group, and whether the
        orbit is nonzero, as two lists."""
        group = relevant_unil(self.table.n)
        if group == "Zero":
            return ["0"], [False]
        texts, flags = [], []
        for theta in orbit_reps(group, self.table.degree_cutoff):
            texts.append(compact_literal(theta))
            flags.append(not theta.is_zero())
        return texts, flags

    def _pairs(self):
        """(coordinate text 1, coordinate text 2, identified_with) per pair of
        the table, in lexicographic order.

        A folded table keeps a pair (a, b) when its negation (na, nb) =
        sorted(-a, -b) is not smaller, and names the negation when it
        differs: the pairs come in lexicographic order, so that is the pair
        the survivor absorbed.
        """
        t = self.table
        desc = t.desc
        elements = structure_set_elements(desc, t.z_bound)
        text = {e: coord_str(desc, e) for e in elements}
        for a, b in combinations_with_replacement(elements, 2):
            absorbed = ""
            if t.folded:
                neg = tuple(sorted((_negate_coord(desc, a), _negate_coord(desc, b))))
                if neg < (a, b):
                    continue
                if neg != (a, b):
                    absorbed = f"{text[neg[0]]};{text[neg[1]]}"
            yield text[a], text[b], absorbed

    def __iter__(self):
        texts, flags = self._thetas
        for a, b, absorbed in self._pairs():
            for theta, flag in zip(texts, flags):
                yield Row(a, b, theta, flag, absorbed)


@dataclass(frozen=True)
class ClassificationTable:
    """A classification table, named by its parameters; its rows are made
    each time they are iterated."""

    n: int
    degree_cutoff: int
    z_bound: int
    folded: bool = False

    @property
    def desc(self):
        return structure_set_P(self.n)

    @property
    def epsilon(self):
        return (-1) ** (self.n + 1)

    @cached_property
    def rows(self):
        return TableRows(self)


def table_row_count(n, degree_cutoff=0, z_bound=0, folded=False):
    """The number of rows of enumerate_J(n, degree_cutoff, z_bound), folded
    by bar_J when ``folded``, in closed form: unordered pairs of
    structure-set coordinates times switch-orbits of the relevant UNil
    group.

    Negation folds the pairs by Burnside, (pairs + fixed pairs) / 2: a pair
    is fixed when both its Z coordinates are 0, or when it is {(bits, z),
    (bits, -z)} with z > 0.
    """
    desc = structure_set_P(n)
    coords = desc.count(z_bound)
    if degree_cutoff < 0:
        raise ValueError("degree cutoff must be >= 0")
    group = relevant_unil(n)
    orbits = 1 if group == "Zero" else orbit_count(group, degree_cutoff)
    pairs = coords * (coords + 1) // 2
    if folded and desc.has_Z:
        bits = 1 << desc.z2_count
        fixed = bits * (bits + 1) // 2 + bits * z_bound
        pairs = (pairs + fixed) // 2
    return pairs * orbits


def enumerate_J(n, degree_cutoff=0, z_bound=0):
    """The classification table for P^n # P^n under truncation.

    Rows are unordered pairs (with repetition) of structure-set
    coordinates crossed with switch-orbit representatives of the
    relevant UNil group; a row is flagged not_connected_sum when its
    theta-orbit is nonzero.  Every limit is checked here; the rows are
    made only when they are iterated.
    """
    # table_row_count raises 2 to the power z2_count (about n / 2) and, for a
    # UNil group, to about twice the cutoff d.  Those exponents are bounded
    # first, so that a huge n or cutoff is refused before the power is
    # computed.  A table has at least as many rows as coordinates, which
    # number at least 2^z2_count (and 2 z_bound + 1 with a Z coordinate),
    # and as switch-orbits, which number at least 2^((d + 1) // 2).
    desc, group = structure_set_P(n), relevant_unil(n)
    limit_bits = MAX_TABLE_ROWS.bit_length()
    if (
        desc.z2_count >= limit_bits
        or (desc.has_Z and z_bound > MAX_TABLE_ROWS)
        or (group != "Zero" and (degree_cutoff + 1) // 2 >= limit_bits)
    ):
        raise ValueError(f"the table would have too many rows, above the limit {MAX_TABLE_ROWS}")
    rows = table_row_count(n, degree_cutoff, z_bound)
    if rows > MAX_TABLE_ROWS:
        raise ValueError(f"the table would have {rows} rows, above the limit {MAX_TABLE_ROWS}")
    return ClassificationTable(n, degree_cutoff, z_bound)


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
    return replace(table, folded=True)


_COLUMNS = ("n", "pair_coord_1", "pair_coord_2", "theta", "not_connected_sum", "identified_with")


def _batches(rows):
    """The rows in runs of at most CHUNK_ROWS, as iterators that are not
    stored: each run must be used up before the next is taken."""
    it = iter(rows)
    for first in it:
        yield chain((first,), islice(it, CHUNK_ROWS - 1))


# table_to_csv and table_to_json return their generators instead of being
# generators, so that perfbench/tracer.py, which skips generator functions,
# records each call and counts the rows of the tables given to table_to_csv.


def table_to_csv(table):
    """The table as CSV text, in chunks of CHUNK_ROWS rows."""
    return _csv_chunks(table)


def _csv_chunks(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    n = table.n
    for batch in _batches(table.rows):
        writer.writerows((n, a, b, theta, int(flag), absorbed) for a, b, theta, flag, absorbed in batch)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


# One row of json.dumps(..., sort_keys=True, indent=2) on a table's JSON
# document, inside the top-level "rows" list.
_JSON_ROW = """\
    {
      "identified_with": %s,
      "n": %d,
      "not_connected_sum": %s,
      "pair_coord_1": %s,
      "pair_coord_2": %s,
      "theta": %s
    }"""


def table_to_json(table):
    """The table as the text of json.dumps(doc, sort_keys=True, indent=2)
    plus a newline, in chunks of CHUNK_ROWS rows, where doc holds n,
    degree_cutoff, z_bound, epsilon, folded and the rows as objects keyed
    by the CSV columns.

    ``indent`` turns off json's C encoder, so dumping a large table costs
    one pure-Python call per token; here the header keys still go through
    json.dumps and each row costs one template fill.  A table always has a
    row, so the list is never empty.
    """
    return _json_chunks(table)


def _json_chunks(table):
    doc = {
        "n": table.n,
        "degree_cutoff": table.degree_cutoff,
        "z_bound": table.z_bound,
        "epsilon": table.epsilon,
        "folded": table.folded,
        "rows": [],
    }
    head, tail = json.dumps(doc, sort_keys=True, indent=2).split('"rows": []')
    enc = encode_basestring_ascii
    n = table.n
    yield f'{head}"rows": [\n'
    for i, batch in enumerate(_batches(table.rows)):
        if i:
            yield ",\n"
        yield ",\n".join(
            _JSON_ROW
            % (enc(absorbed), n, "true" if flag else "false", enc(a), enc(b), enc(theta))
            for a, b, theta, flag, absorbed in batch
        )
    yield f"\n  ]{tail}\n"
