"""Submodules of a linking form's module: the sublagrangian reduction
and the bounded lagrangian search.

A Submodule of F2[t]^k is held by its canonical Hermite basis (see
f2linalg).  A sublagrangian S is checked by q on each generator, then by
the Gram product of its generators, whose factor S * b_num also gives
S-perp.  The basis of (S-perp)/S completes the coordinates of S in a
basis of S-perp to a unimodular matrix, read off one Hermite form of
their transpose (f2linalg.unimodular_completion), and the reduced form
has b on that basis as a Gram product too.  find_lagrangian searches
the canonical echelon generator matrices with entries of bounded degree
for L = L-perp with q|L = 0.

The forms and their values are linking's.  This module holds the code
that needs f2linalg beyond an odd form's det, so that arf, which runs
none of it, compiles none of it.
"""

from __future__ import annotations

import itertools
import math

from unilcalc._record import Record
from unilcalc.f2linalg import (
    divmod_rows,
    hermite_form,
    left_kernel,
    mat_identity,
    mat_mul,
    mat_transpose,
    unimodular_completion,
)
from unilcalc.kernels import gf2_deg, gf2_mul, z4_mul, z4_sq_lift
from unilcalc.linking import (
    MAX_FORM_WORK,
    Z4_ZERO,
    LinkingForm,
    _parse_polys,
    entry_degree,
    eval_bq,
    eval_q,
)
from unilcalc.polynomials import parse_f2, render

# find_lagrangian refuses a search whose q = 0 filter would test more rows
# than this (search_rows); a pure-Python filter tests about a million rows
# a second
MAX_SEARCH_ROWS = 10_000_000
# and stops a search once it has checked more candidate combinations than
# this, at about 30,000 a second on one x86_64 core; the bundled rank-4
# searches check at most 10
MAX_SEARCH_COMBINATIONS = 200_000


class Submodule(Record):
    """Submodule of F2[t]^k held by its canonical Hermite basis."""

    _fields = ("ambient_rank", "basis")

    def __init__(self, ambient_rank, basis):
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def from_generators(cls, gens, ambient_rank):
        gens = tuple(tuple(row) for row in gens)
        for row in gens:
            if len(row) != ambient_rank:
                raise ValueError("generator length does not match ambient rank")
        if not gens:
            return cls(ambient_rank, ())
        return cls(ambient_rank, tuple(row for row in hermite_form(gens) if any(row)))

    @property
    def rank(self):
        return len(self.basis)

    def to_json_dict(self):
        return {"generators": [[render(x) for x in row] for row in self.basis]}

    @classmethod
    def from_json_dict(cls, d, form):
        """The submodule of form's module that the generators of d span.
        One whose reduction_work, at the form's rank and the largest degree
        of an entry of the form or of a generator, is above MAX_FORM_WORK is
        refused before its Hermite basis is built."""
        if not isinstance(d, dict) or not isinstance(d.get("generators"), list):
            raise ValueError("a submodule must be a JSON object with a generators list")
        k = form.rank
        gens = [
            _parse_polys(row, "generator", k, parse_f2, f"generators[{i}]")
            for i, row in enumerate(d["generators"])
        ]
        degree = max(entry_degree(form.b_num, form.q_num), entry_degree(gens, ()))
        work = reduction_work(k, degree)
        if work > MAX_FORM_WORK:
            raise ValueError(
                f"a submodule of a rank-{k} form with entries of degree up to {degree} is too "
                f"large to reduce: its work estimate {work} is above the limit {MAX_FORM_WORK}"
            )
        return cls.from_generators(gens, k)


def reduction_work(rank, degree):
    """Estimated cost of sublagrangian_reduce on a form of this rank whose
    entries, and the generators of whose submodule, have degree at most
    degree, in linking.form_work's units of about 10 ns.

    The Hermite basis of r generators of degree d has entries of degree up
    to about r*d, and so do the coordinates C of S in S-perp.  The formula
    was fitted when the quotient basis came from a Smith form of C, whose
    unreduced column moves grew on some inputs to 35 times the degree of
    C: to the slowest of six random submodules per shape, spanned by r =
    rank/2 - 1 or rank/2 generators of degree d in the even slots of
    hyperbolic forms of rank 4-80, on one x86_64 core, about 1/30 of
    rank^4 * d^2 at ranks 12 and 16 (78 s at rank 16, degree 2,000,
    estimated at 82 s).  It is kept unchanged, so the same submodules are
    refused.  The completion from one Hermite form of C^T costs far less:
    three generators of degree 16,000 in a rank-8 hyperbolic form, refused
    here, take about 3 s through sublagrangian_reduce where the Smith form
    took 140 s.  Refitting the formula is left open."""
    return rank**4 * (degree + 1) ** 2 // 32


def full_module(k):
    return Submodule(k, mat_identity(k))


def orthogonal_complement(form, S):
    """{x : b(x, s) = 0 for all s in S} in canonical basis."""
    if S.ambient_rank != form.rank:
        raise ValueError("submodule ambient rank does not match form")
    if not S.basis:
        return full_module(form.rank)
    return _complement(mat_mul(S.basis, form.b_num))


def _complement(SB):
    """The orthogonal complement of the nonzero rows s of S, from SB = S *
    b_num, whose row i holds the pairings of s_i with the basis: b_num is
    symmetric, so x pairs to 0 with all of S when x * SB^T = 0."""
    return Submodule(len(SB[0]), left_kernel(mat_transpose(SB)))


def _check_sublagrangian(form, S):
    """Check that q vanishes on the generators of S, then b on pairs of
    them, and return SB = S * b_num (see _complement).  b on S is the Gram
    matrix SB * S^T; its first nonzero entry with i <= j in row-major order
    is reported."""
    for i, row in enumerate(S.basis):
        if eval_q(form, row) != Z4_ZERO:
            raise ValueError(f"q does not vanish on generator {i} of S")
    SB = mat_mul(S.basis, form.b_num)
    for i, row in enumerate(mat_mul(SB, mat_transpose(S.basis))):
        j = next((j for j in range(i, len(row)) if row[j]), None)
        if j is not None:
            raise ValueError(f"b({i},{j}) is nonzero on S: S is not isotropic")
    return SB


def sublagrangian_reduce(form, S):
    """The induced form on (S-perp)/S.  S must be isotropic with q|S = 0 and
    a direct summand of its complement; the quotient basis completes S
    inside S-perp: unimodular_completion(C) on the coordinates C of S in
    the basis T of S-perp gives Y with [C; Y] unimodular, so the rows of
    [C; Y] * T are a basis of S-perp whose first r rows are S and whose
    other rows are the quotient basis reps = Y * T.  There is no such Y
    when S is not a direct summand.
    b on reps is the Gram matrix reps * b_num * reps^T and q is eval_q on
    each rep."""
    if S.ambient_rank != form.rank:
        raise ValueError("submodule ambient rank does not match form")
    if not S.basis:
        return form
    # b vanishes on S, so S * SB^T = 0 and S lies in its complement
    T = _complement(_check_sublagrangian(form, S)).basis
    C = tuple(divmod_rows(row, T)[0] for row in S.basis)
    Y = unimodular_completion(C)
    if Y is None:
        raise ValueError("S is not a direct summand of its orthogonal complement")
    reps = mat_mul(Y, T)
    b = mat_mul(mat_mul(reps, form.b_num), mat_transpose(reps))
    q = tuple(eval_q(form, row) for row in reps)
    return LinkingForm(len(reps), b, q)


def search_rows(k, bound):
    """How many candidate rows the q = 0 filter tests, at most, in a
    lagrangian search of rank k at this degree bound.

    Row i of a pivot pattern is filtered once per (pivot value, degrees of
    the later pivots).  With n = 2^(bound+1) - 1 nonzero pivot values and
    F = 2^(bound+1) values per free slot, summing 2^d over the degrees d
    of each later pivot gives n again, so row i tests n^(r-i) * F^free
    rows, free being the non-pivot slots after its pivot.  C(p, i) *
    C(k-1-p, r-1-i) patterns put pivot i at slot p.  Lists after an empty
    one are never built, so a search may test fewer."""
    r = k // 2
    F = 1 << (bound + 1)
    n = F - 1
    total = 0
    for i in range(r):
        for p in range(i, k - r + i + 1):
            free = (k - 1 - p) - (r - 1 - i)
            patterns = math.comb(p, i) * math.comb(k - 1 - p, r - 1 - i)
            total += patterns * n ** (r - i) * F**free
    return total


def _slot_tables(form, bound):
    """Per-slot tables for one search, indexed by coefficients of degree
    <= bound: sq[c][f] = f^2 q(e_c), and cross[(i, j)][a] = a b_ij for
    i < j with b_ij != 0."""
    k = form.rank
    values = range(1 << (bound + 1))
    sq = tuple(tuple(z4_mul(*z4_sq_lift(f), *qc) for f in values) for qc in form.q_num)
    cross = {
        (i, j): tuple(gf2_mul(a, form.b_num[i][j]) for a in values)
        for i in range(k)
        for j in range(i + 1, k)
        if form.b_num[i][j]
    }
    return sq, cross


def _q_zero_rows(tables, pivot, pval, spans):
    """The rows (0, ..., 0, pval, x_(pivot+1), ..., x_(k-1)), x_c running
    over spans[c] in itertools.product order, on which q vanishes.

    q is built slot by slot: setting slot c to v adds v^2 q(e_c) and
    2 v b(x, e_c), where x is the row so far, so each row costs one table
    lookup and at most one gf2_mul per slot."""
    sq, cross = tables
    k = len(spans)
    row = [0] * k
    row[pivot] = pval
    rows = []

    def extend(c, lo, hi):
        if c == k:
            if not (lo or hi):
                rows.append(tuple(row))
            return
        bx = 0  # numerator of b(x, e_c); row[c:] is not read
        for i in range(pivot, c):
            a = row[i]
            if a and (i, c) in cross:
                bx ^= cross[i, c][a]
        sqc = sq[c]
        for v in spans[c]:
            slo, shi = sqc[v]
            vhi = hi ^ shi ^ (lo & slo)
            if bx and v:
                vhi ^= gf2_mul(bx, v)
            row[c] = v
            extend(c + 1, lo ^ slo, vhi)

    extend(pivot + 1, *sq[pivot][pval])
    return rows


def _lagrangian_candidates(form, pivots, bound, tables):
    """Canonical-echelon candidate generators for one pivot pattern, with
    rows pre-filtered by q(row) = 0; tables is _slot_tables(form, bound)."""
    k = form.rank
    r = len(pivots)
    free_space = range(1 << (bound + 1))
    # the rows for row i depend only on its pivot value and on the degrees
    # of the later pivots, which bound the slots reduced mod those pivots
    lists = {}
    for pvals in itertools.product(range(1, 1 << (bound + 1)), repeat=r):
        per_row = []
        for i in range(r):
            later = tuple(gf2_deg(v) for v in pvals[i + 1 :])
            key = (i, pvals[i], later)
            rows = lists.get(key)
            if rows is None:
                spans = [free_space] * k
                for c, d in zip(pivots[i + 1 :], later):
                    spans[c] = range(1 << d)
                rows = lists[key] = _q_zero_rows(tables, pivots[i], pvals[i], spans)
            if not rows:
                break
            per_row.append(rows)
        else:
            yield from itertools.product(*per_row)


def _search_pattern(form, pivots, bound, tables, checked):
    """The first lagrangian among one pattern's candidates, or None; tables
    and checked, an itertools.count, are shared by one search's patterns."""
    for combo in _lagrangian_candidates(form, pivots, bound, tables):
        if next(checked) >= MAX_SEARCH_COMBINATIONS:
            raise ValueError(
                f"a lagrangian search of rank {form.rank} at degree bound {bound} "
                f"checks more than {MAX_SEARCH_COMBINATIONS} candidate combinations"
            )
        ok = True
        for i in range(len(combo)):
            for j in range(i + 1, len(combo)):
                if eval_bq(form, combo[i], combo[j])[0]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        # candidates are already canonical echelon bases
        L = Submodule(form.rank, combo)
        if orthogonal_complement(form, L).basis == L.basis:
            return L
    return None


def find_lagrangian(form, degree_bound):
    """Exhaustive search for L with L = L-perp and q|L = 0, over canonical
    echelon generator matrices with entries of degree <= degree_bound.
    Returns the first witness in canonical order, or None (no witness below
    the bound is not a nonexistence proof).  A search whose q = 0 filter
    would test more than MAX_SEARCH_ROWS rows (see search_rows) is refused
    before anything is built; one that checks more than
    MAX_SEARCH_COMBINATIONS candidate combinations raises ValueError when
    it gets there."""
    if degree_bound < 0:
        raise ValueError("the degree bound must be non-negative")
    k = form.rank
    if k == 0:
        return Submodule(0, ())
    if k % 2:
        return None
    # for k >= 2 the search tests at least 2^(bound+1) - 1 rows, so a bound
    # this large is refused without computing 2^(bound+1)
    if (
        degree_bound >= MAX_SEARCH_ROWS.bit_length()
        or search_rows(k, degree_bound) > MAX_SEARCH_ROWS
    ):
        raise ValueError(
            f"a lagrangian search of rank {k} at degree bound {degree_bound} "
            f"tests more than {MAX_SEARCH_ROWS} candidate rows"
        )
    tables = _slot_tables(form, degree_bound)
    checked = itertools.count()
    for pivots in itertools.combinations(range(k), k // 2):
        L = _search_pattern(form, pivots, degree_bound, tables, checked)
        if L is not None:
            return L
    return None
