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
from functools import cached_property
from itertools import combinations_with_replacement, product
from json.encoder import encode_basestring_ascii

from unilcalc._record import Record
from unilcalc.polynomials import render
from unilcalc.unil import UNil2Element, orbit_count, orbit_reps, unil3_literal


# enumerate_J refuses a table with more rows than this.  Rows are made and
# written a chunk at a time, so the limit bounds the time and the size of the
# output, not memory.  On one core of a 2-vCPU x86_64 VM with CPython 3.11 a
# row takes about 0.2 us as CSV and 0.4 us as JSON when its pair has thousands
# of theta orbits (classify 8 --degree-cutoff 6), and about 0.8 and 1.1 us
# when it has one (classify 7 --z-bound 249, with or without --bar); at 50
# bytes of CSV or 200 of JSON a row, the largest admitted table takes up to
# about 2.5 s and writes up to 400 MB.
# The largest table the tests, README and benchmark use (classify 8
# --degree-cutoff 5) has 152,064 rows.
MAX_TABLE_ROWS = 2_000_000

# rows per chunk of written output
CHUNK_ROWS = 4096


class StructureSetDescriptor(Record):
    _fields = ("n", "m", "ell", "z2_count", "has_Z")

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


class TableRows:
    """The parts the writers join a table's rows from, made afresh on each
    call, so that no table holds its rows; len() is the closed-form count.

    A row is a pair of structure-set coordinates crossed with a theta
    orbit.  Each coordinate and each theta is rendered once per table.
    """

    def __init__(self, table):
        self.table = table
        self._len = table_row_count(table.n, table.degree_cutoff, table.z_bound, table.folded)

    def __len__(self):
        return self._len

    def _thetas(self):
        """The text of each switch-orbit of the UNil group, and whether the
        orbit is nonzero, made afresh on each call.

        The representatives come as coordinates (unil.orbit_reps).  On
        UNil_3 a theta's text is joined from its coordinates' text,
        rendered once each: the representatives come one x row at a time,
        so an x-coordinate is rendered when its row starts, and each of the
        2^d y-coordinates the first time it is met."""
        group = relevant_unil(self.table.n)
        if group == "Zero":
            yield "0", False
            return
        reps = orbit_reps(group, self.table.degree_cutoff)
        if group == "UNil2":
            for bits in reps:
                yield UNil2Element(bits).literal(compact=True), bits != 0
            return
        x, x_text, y_texts = None, "", {0: ""}
        for rep_x, y in reps:
            if rep_x != x:
                x = rep_x
                x_text = render(x, True) if any(x) else ""
            y_text = y_texts.get(y)
            if y_text is None:
                y_text = y_texts[y] = render(y, True)
            yield unil3_literal(x_text, y_text), y != 0 or any(x)

    @cached_property
    def _coords(self):
        """The text of each structure-set coordinate, in lexicographic order,
        and the index of its negation, as two lists."""
        desc = self.table.desc
        elements = structure_set_elements(desc, self.table.z_bound)
        index = {e: i for i, e in enumerate(elements)}
        texts = [coord_str(desc, e) for e in elements]
        return texts, [index[_negate_coord(desc, e)] for e in elements]

    def _pairs(self):
        """(i, j, absorbed) per pair of the table, in lexicographic order:
        indices i <= j into the coordinates of _coords, and the index pair
        the row absorbed, or None.

        A folded table keeps a pair (i, j) when its negation, the negated
        indices in order, is not smaller, and names the negation when it
        differs: the pairs come in lexicographic order, so that is the pair
        the survivor absorbed.
        """
        neg = self._coords[1]
        if not self.table.folded:
            # every pair is then its own negation, and kept
            neg = range(len(neg))
        for i, j in combinations_with_replacement(range(len(neg)), 2):
            ni, nj = neg[i], neg[j]
            if ni > nj:
                ni, nj = nj, ni
            if ni < i or (ni == i and nj < j):
                continue
            yield i, j, (None if ni == i and nj == j else (ni, nj))


class ClassificationTable(Record):
    """A classification table, named by its parameters; table_to_csv and
    table_to_json make its rows each time they write it."""

    _fields = ("n", "degree_cutoff", "z_bound", "folded")

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
    return ClassificationTable(n, degree_cutoff, z_bound, False)


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
    return ClassificationTable(table.n, table.degree_cutoff, table.z_bound, True)


_COLUMNS = ("n", "pair_coord_1", "pair_coord_2", "theta", "not_connected_sum", "identified_with")


# table_to_csv and table_to_json return their generators instead of being
# generators, so that perfbench/tracer.py, which skips generator functions,
# records each call and counts the rows of the tables given to table_to_csv.


def table_to_csv(table):
    """The table as CSV text, in chunks of CHUNK_ROWS rows.

    The cells are rendered once each: a theta's per table, a pair's head
    and tail per pair.  A pair's rows are one join of the theta cells,
    appended to the chunk being filled and cut where it reaches CHUNK_ROWS
    rows."""
    return _csv_chunks(table)


def _csv_chunks(table):
    rows = table.rows
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="")

    def cells(*fields):
        # csv.writer decides quoting field by field (QUOTE_MINIMAL), so cells
        # rendered apart join into the row it writes
        buf.seek(0)
        buf.truncate()
        writer.writerow(fields)
        return buf.getvalue()

    thetas = [cells(theta, int(flag)) for theta, flag in rows._thetas()]
    # coordinate text, [01]+ with an optional :-?\d+, and two of them joined
    # by ";" never need quoting, so they are written as they are
    coords = rows._coords[0]
    n = cells(table.n)
    orbits = len(thetas)
    parts = [cells(*_COLUMNS) + "\n"]
    room = CHUNK_ROWS  # rows the chunk being filled has yet to take

    def chunk():
        # the parts are freed before the chunk is yielded and written
        text = "".join(parts)
        parts.clear()
        return text

    for i, j, absorbed in rows._pairs():
        # a row is the pair's head, a theta cell and the pair's tail, so a
        # run of the pair's rows is one join of the theta cells; csv.writer
        # writes an empty last field as nothing
        head = f"{n},{coords[i]},{coords[j]},"
        tail = ",\n" if absorbed is None else f",{coords[absorbed[0]]};{coords[absorbed[1]]}\n"
        start = 0
        while orbits - start >= room:
            # the pair's rows from start on fill the chunk
            stop = start + room
            parts.append(head + (tail + head).join(thetas[start:stop]) + tail)
            start = stop
            yield chunk()
            room = CHUNK_ROWS
        if start < orbits:
            parts.append(head + (tail + head).join(thetas[start:]) + tail)
            room -= orbits - start
    if parts:
        yield chunk()


def table_to_json(table):
    """The table as the text of json.dumps(doc, sort_keys=True, indent=2)
    plus a newline, in chunks of CHUNK_ROWS rows, where doc holds n,
    degree_cutoff, z_bound, epsilon, folded and the rows as objects keyed
    by the CSV columns.

    ``indent`` turns off json's C encoder, so dumping a large table costs
    one pure-Python call per token; here the header keys still go through
    json.dumps, each coordinate and each theta is escaped once per table, a
    pair's fields are joined from those once per pair, and a row joins the
    pair's fields and the theta's.  The rows go straight into the chunk
    being filled.  A table always has a row, so the list is never empty.
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
    rows = table.rows
    enc = encode_basestring_ascii
    cells = [("true" if flag else "false", enc(theta) + "\n    }") for theta, flag in rows._thetas()]
    coords = [enc(c) for c in rows._coords[0]]
    n = str(table.n)
    orbits = len(cells)
    # len(rows) is the closed-form count, so the last chunk, which closes
    # the document, is known before it is made
    last = (len(rows) - 1) // CHUNK_ROWS
    lines, k = [], 0
    append = lines.append
    room = CHUNK_ROWS  # rows the chunk being filled has yet to take

    def chunk(k):
        # the chunk's lines, opened by the document's head or by the comma
        # after the chunk before, and closed by the document's tail when k is
        # the last chunk; they are freed before the chunk is yielded and
        # written
        lines[0] = (f'{head}"rows": [\n' if k == 0 else ",\n") + lines[0]
        if k == last:
            lines[-1] += f"\n  ]{tail}\n"
        text = ",\n".join(lines)
        lines.clear()
        return text

    for i, j, absorbed in rows._pairs():
        # JSON escapes character by character, so the escape of "a;b" is
        # that of a, then ";", then that of b
        identified = '""' if absorbed is None else f"{coords[absorbed[0]][:-1]};{coords[absorbed[1]][1:]}"
        # a row of json.dumps(doc, sort_keys=True, indent=2), cut at its two
        # fields that depend on the theta orbit
        front = (
            f'    {{\n      "identified_with": {identified},\n      "n": {n},\n'
            f'      "not_connected_sum": '
        )
        middle = (
            f',\n      "pair_coord_1": {coords[i]},\n      "pair_coord_2": {coords[j]},\n'
            f'      "theta": '
        )
        start = 0
        while orbits - start >= room:
            # the pair's rows from start on fill the chunk
            stop = start + room
            for flag, theta in cells[start:stop]:
                append(f"{front}{flag}{middle}{theta}")
            start = stop
            yield chunk(k)
            k, room = k + 1, CHUNK_ROWS
        for flag, theta in cells[start:]:
            append(f"{front}{flag}{middle}{theta}")
        room -= orbits - start
    if lines:
        yield chunk(k)
