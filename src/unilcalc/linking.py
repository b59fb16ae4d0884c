"""Quadratic linking forms of exponent 2 over F2[t], with values carried as
numerators over a denominator of 2.

A form of rank k stores b_num, a symmetric k x k matrix over F2[t] (the
numerator of b(e_i, e_j), read in (1/2)Z[t]/Z[t]) and q_num, a length-k
vector over Z4[t] (the numerator of q(e_i), read in (1/2)Z[t]/2Z[t]).
Polynomials over F2 are int bitmasks, Z4[t] values are (lo, hi) bit pairs;
see kernels.  Nonsingularity (det b_num = 1), symmetry and the mod-2
compatibility q_num(e_i) = b_num(i, i) are enforced on construction;
from_json_dict first refuses a form above MAX_FORM_WORK (see form_work).

The quadratic law q(x + y) = q(x) + q(y) + 2b(x, y), q(f*x) = f^2*q(x)
determines q everywhere from basis values; eval_q implements it with
{0,1}-coefficient lifts, and the result is lift-independent.  b on a set
of vectors, the rows of a matrix X, is the Gram product X * b_num * X^T.
A sublagrangian S is checked by q on each generator, then by the Gram
product of its generators, whose factor S * b_num also gives S-perp;
b on the reduced basis is a Gram product too.

On an even form q = 2*q2 with q2 over F2[t].  Its Arf invariant is a
class in F2[t]/{g^2 - g}, held as its canonical bitmask like
unil.UNil2Element.arf_bits; arf_even computes it on a symplectic basis
over F2[t], with q2 carried through the moves that build the basis.
"""

from __future__ import annotations

import functools
import itertools
import math

from unilcalc._record import Record
from unilcalc.f2linalg import (
    det,
    divmod_rows,
    hnf,
    left_kernel,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_transpose,
    smith,
)
from unilcalc.funcfield import symplectic_basis
from unilcalc.kernels import gf2_deg, gf2_mul, z4_add, z4_mul, z4_neg, z4_sq_lift
from unilcalc.polynomials import Polynomial, idem_reduce, parse_f2, parse_z4, render

Z4_ZERO = (0, 0)

# find_lagrangian refuses a search whose q = 0 filter would test more rows
# than this (search_rows); a pure-Python filter tests about a million rows
# a second
MAX_SEARCH_ROWS = 10_000_000
# and stops a search once it has checked more candidate combinations than
# this, at about 30,000 a second on one x86_64 core; the bundled rank-4
# searches check at most 10
MAX_SEARCH_COMBINATIONS = 200_000
# LinkingForm.from_json_dict refuses a form whose form_work is above this,
# before its determinant is taken: about 40 s of det on dense entries on one
# x86_64 core.  Rank 80 is read up to degree 88, rank 20 up to 4,572 and
# rank 8 up to 31,114; the benchmark's rank-20 forms (degree about 30) need
# 5.3e6
MAX_FORM_WORK = 4_000_000_000


def form_work(rank, degree):
    """Estimated cost of det, the sublagrangian reduction and the Arf
    invariant on a form of this rank whose entries have degree at most
    degree, in units of about 10 ns of pure Python on x86_64.  Euclid on
    column j works on entries whose degree grows to about j*degree, so the
    multiplies cost rank^4 * degree word operations while the operands
    fit in a few machine words, and gf2_mul's shifts add a factor of their
    length above about 1024 bits.  Fitted to det on dense random matrices:
    rank 8-40, degree 1,000-65,536."""
    return rank**4 * (degree + 1) * (degree + 1024) // 1024


def _parse_polys(value, what, length, parse, name):
    """The polynomials of value, which must be a JSON list of length
    polynomial strings, each read by parse; a parse error is prefixed with
    name[i]."""
    if not isinstance(value, list) or len(value) != length or not all(
        isinstance(s, str) for s in value
    ):
        raise ValueError(f"{what} must be a list of {length} polynomial strings")
    out = []
    for i, s in enumerate(value):
        try:
            out.append(parse(s))
        except ValueError as exc:
            raise ValueError(f"{name}[{i}]: {exc}") from None
    return out


class LinkingForm(Record):
    _fields = ("rank", "b_num", "q_num")

    def __init__(self, rank, b_num, q_num):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "b_num", b_num)
        object.__setattr__(self, "q_num", q_num)
        self.__post_init__()

    def __post_init__(self):
        k = self.rank
        if len(self.b_num) != k or any(len(row) != k for row in self.b_num):
            raise ValueError("b_num must be rank x rank")
        if len(self.q_num) != k:
            raise ValueError("q_num must have one entry per basis vector")
        for i in range(k):
            for j in range(k):
                if self.b_num[i][j] != self.b_num[j][i]:
                    raise ValueError("b_num must be symmetric")
        if det(self.b_num) != 1:
            raise ValueError("b is singular: det(b_num) is not a unit in F2[t]")
        for i, (lo, _) in enumerate(self.q_num):
            if lo != self.b_num[i][i]:
                raise ValueError(f"q_num[{i}] mod 2 must equal b_num[{i}][{i}]")

    def to_json_dict(self):
        return {
            "rank": self.rank,
            "b_num": [[render(x) for x in row] for row in self.b_num],
            "q_num": [render(q) for q in self.q_num],
        }

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict) or not {"rank", "b_num", "q_num"} <= d.keys():
            raise ValueError("a form must be a JSON object with rank, b_num and q_num")
        k = d["rank"]
        if type(k) is not int or k < 0:
            raise ValueError("rank must be a non-negative integer")
        rows = d["b_num"]
        if not isinstance(rows, list) or len(rows) != k:
            raise ValueError(f"b_num must be a list of {k} rows")
        b = tuple(
            tuple(_parse_polys(row, "b_num row", k, parse_f2, f"b_num[{i}]"))
            for i, row in enumerate(rows)
        )
        q = tuple(_parse_polys(d["q_num"], "q_num", k, parse_z4, "q_num"))
        bits = [x.bit_length() for row in b for x in row] + [(lo | hi).bit_length() for lo, hi in q]
        degree = max(bits, default=0) - 1
        work = form_work(k, degree)
        if work > MAX_FORM_WORK:
            raise ValueError(
                f"a form of rank {k} with entries of degree up to {degree} is too large: "
                f"its work estimate {work} is above the limit {MAX_FORM_WORK}"
            )
        return cls(k, b, q)


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
        H, _ = hnf(gens)
        return cls(ambient_rank, tuple(row for row in H if any(row)))

    @property
    def rank(self):
        return len(self.basis)

    def to_json_dict(self):
        return {"generators": [[render(x) for x in row] for row in self.basis]}

    @classmethod
    def from_json_dict(cls, d, ambient_rank):
        if not isinstance(d, dict) or not isinstance(d.get("generators"), list):
            raise ValueError("a submodule must be a JSON object with a generators list")
        gens = [
            _parse_polys(row, "generator", ambient_rank, parse_f2, f"generators[{i}]")
            for i, row in enumerate(d["generators"])
        ]
        return cls.from_generators(gens, ambient_rank)


def full_module(k):
    return Submodule(k, mat_identity(k))


def _n_entries(p, g):
    """b_num[0][0] and q_num of make_N(p, g)."""
    if p.coefficient(0) != 0 and g.coefficient(0) != 0:
        raise ValueError("need p(0) = 0 or g(0) = 0")
    p4 = p.mod4()
    # 2g mod 4 is g mod 2 on the hi plane
    return p4[0], (p4, (0, g.mod4()[0]))


def make_N(p, g):
    """Rank-2 generator for p, g over Z: b_num = [[p, 1], [1, 0]] mod 2,
    q_num = (p, 2g) mod 4.  Requires p(0) = 0 or g(0) = 0."""
    b00, q = _n_entries(p, g)
    return LinkingForm(2, ((b00, 1), (1, 0)), q)


def eval_q(form, x):
    """q(x) numerator over Z4[t]: sum x_i^2 q(e_i) + 2 sum_(i<j) x_i x_j
    b(e_i, e_j), the cross terms summed over F2[t] and doubled once."""
    k = form.rank
    if len(x) != k:
        raise ValueError("vector length does not match form rank")
    q_val = Z4_ZERO
    cross = 0
    for i, xi in enumerate(x):
        if xi:
            q_val = z4_add(*q_val, *z4_mul(*z4_sq_lift(xi), *form.q_num[i]))
            row = form.b_num[i]
            bx = 0  # numerator of b(e_i, sum_(j>i) x_j e_j)
            for j in range(i + 1, k):
                if x[j] and row[j]:
                    bx ^= gf2_mul(row[j], x[j])
            if bx:
                cross ^= gf2_mul(xi, bx)
    return z4_add(*q_val, 0, cross)


def eval_bq(form, x, y):
    """(b(x, y) numerator over F2[t], q(x) numerator over Z4[t])."""
    k = form.rank
    if len(x) != k or len(y) != k:
        raise ValueError("vector length does not match form rank")
    b_val = 0
    for i in range(k):
        if x[i]:
            for j in range(k):
                if y[j] and form.b_num[i][j]:
                    b_val ^= gf2_mul(gf2_mul(x[i], form.b_num[i][j]), y[j])
    return b_val, eval_q(form, x)


def direct_sum(forms):
    forms = tuple(forms)
    k = sum(f.rank for f in forms)
    b = [[0] * k for _ in range(k)]
    q = []
    off = 0
    for f in forms:
        for i in range(f.rank):
            for j in range(f.rank):
                b[off + i][off + j] = f.b_num[i][j]
        q.extend(f.q_num)
        off += f.rank
    return LinkingForm(k, tuple(tuple(row) for row in b), tuple(q))


def negate(form):
    return LinkingForm(form.rank, form.b_num, tuple(z4_neg(*c) for c in form.q_num))


def resolution_to_linking(c):
    """Linking form of a resolution induced from Z[t] with d = 2*identity.
    Every psi entry must be q(t)*a with q in Z[t]; b_num(i, j) is the q of
    psi0(i, j) mod 2 and q_num(e_i) is -q of psi1(i, i) mod 4.  The sign
    makes the standard (p, g) complex land on make_N(p, g)."""
    for i, row in enumerate(c.d):
        for j, e in enumerate(row):
            if e.terms != ((((0, 0), 2),) if i == j else ()):
                raise ValueError("only d = 2*identity resolutions are supported")
    for name in ("psi0", "psi1"):
        for i, row in enumerate(getattr(c, name)):
            for j, e in enumerate(row):
                # e.terms holds ((k, eps), coeff) for the group element t^k a^eps
                if any(eps != 1 or k < 0 for (k, eps), _ in e.terms):
                    raise ValueError(f"{name} entry ({i},{j}) {e} is not q(t)*a with q in Z[t]")
    b = tuple(tuple(sum(1 << k for (k, _), x in e.terms if x % 2) for e in row) for row in c.psi0)
    q = []
    for i in range(c.rank):
        lo = hi = 0
        for (k, _), x in c.psi1[i][i].terms:
            v = -x % 4
            lo |= (v & 1) << k
            hi |= (v >> 1) << k
        q.append((lo, hi))
    return LinkingForm(c.rank, b, tuple(q))


def is_even(form):
    """True when b(x, x) is integral for all x; on the numerator encoding
    this is b_num(i, i) = 0 for all i (cross terms of b(x, x) cancel mod 2)."""
    return all(form.b_num[i][i] == 0 for i in range(form.rank))


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
    a direct summand of its complement; the quotient basis comes from a
    Smith decomposition of S inside S-perp.  b on the quotient basis is the
    Gram matrix reps * b_num * reps^T and q is eval_q on each rep."""
    if S.ambient_rank != form.rank:
        raise ValueError("submodule ambient rank does not match form")
    if not S.basis:
        return form
    # b vanishes on S, so S * SB^T = 0 and S lies in its complement
    T = _complement(_check_sublagrangian(form, S)).basis
    C = tuple(divmod_rows(row, T)[0] for row in S.basis)
    D, _, V = smith(C)
    r = len(S.basis)
    if any(D[i][i] != 1 for i in range(r)):
        raise ValueError("S is not a direct summand of its orthogonal complement")
    reps = mat_mul(mat_inverse(V)[r:], T)
    b = mat_mul(mat_mul(reps, form.b_num), mat_transpose(reps))
    q = tuple(eval_q(form, row) for row in reps)
    return LinkingForm(len(reps), b, q)


def arf_even(form):
    """Arf invariant of an even form, as the canonical bitmask of its class
    in F2[t]/{g^2 - g} (see polynomials.idem_reduce).

    b_num is alternating and unimodular over F2[t], so it has a symplectic
    basis (u_i, v_i) over F2[t] itself, and the class of sum q2(u_i) *
    q2(v_i), q = 2 q2, does not depend on the basis.  The q2 values are
    carried through the moves that build the basis
    (funcfield.symplectic_basis), so q is never evaluated on its
    coordinates.  The class is also the class in F2(t)/{g^2 - g}: if g^2 +
    g is a polynomial then so is g, so F2[t]/{g^2 - g} embeds there.
    """
    if not is_even(form):
        raise ValueError("Arf invariant needs an even form")
    total = 0
    # q of an even form is 2*q2, so its numerator is (0, q2)
    for _, _, qu, qv in symplectic_basis(form.b_num, [hi for _, hi in form.q_num]):
        total ^= gf2_mul(qu, qv)
    return idem_reduce(total)


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


@functools.lru_cache(maxsize=1)
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


def _lagrangian_candidates(form, pivots, bound):
    """Canonical-echelon candidate generators for one pivot pattern, with
    rows pre-filtered by q(row) = 0."""
    k = form.rank
    r = len(pivots)
    tables = _slot_tables(form, bound)
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


def _search_pattern(form, pivots, bound, checked):
    """The first lagrangian among one pattern's candidates, or None.
    checked is an itertools.count shared by the patterns of one search."""
    for combo in _lagrangian_candidates(form, pivots, bound):
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
    checked = itertools.count()
    for pivots in itertools.combinations(range(k), k // 2):
        L = _search_pattern(form, pivots, degree_bound, checked)
        if L is not None:
            return L
    return None


def witt_four_term_instance(p):
    """The rank-8 sum (N_{t,p} + N_{p,t}) + (-(N_{1,tp} + N_{tp,1})) for p
    over Z, together with its standard sublagrangian span(v0, v1), where
    v0 = p_ev e4 + e6 + t p_od e8 and v1 = e2 + p_od e4 + p_ev e8 use the
    even/odd split p = p_ev^2 + t p_od^2 mod 2.  Reducing at this
    sublagrangian certifies [N_{t,p}] + [N_{p,t}] = [N_{1,tp}] + [N_{tp,1}].
    The rank-8 form is built block by block, as one LinkingForm."""
    t = Polynomial.t()
    one = Polynomial.one()
    tp = t * p
    b = [[0] * 8 for _ in range(8)]
    q = []
    for i, (x, y, negated) in enumerate(((t, p, False), (p, t, False), (one, tp, True), (tp, one, True))):
        b00, q_block = _n_entries(x, y)
        b[2 * i][2 * i] = b00
        b[2 * i][2 * i + 1] = b[2 * i + 1][2 * i] = 1
        q.extend((z4_neg(*c) for c in q_block) if negated else q_block)
    G = LinkingForm(8, tuple(map(tuple, b)), tuple(q))
    # p_ev takes the even-exponent coefficients of p mod 2, p_od the odd ones
    pe = sum((c & 1) << k for k, c in enumerate(p.coeffs[0::2]))
    po = sum((c & 1) << k for k, c in enumerate(p.coeffs[1::2]))
    v0 = (0, 0, 0, pe, 0, 1, 0, gf2_mul(2, po))  # t*p_od
    v1 = (0, 1, 0, po, 0, 0, 0, pe)
    return G, Submodule.from_generators((v0, v1), 8)
