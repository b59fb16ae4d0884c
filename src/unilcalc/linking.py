"""Quadratic linking forms of exponent 2 over F2[t], with values carried as
numerators over a denominator of 2.

A form of rank k stores b_num, a symmetric k x k matrix over F2[t] (the
numerator of b(e_i, e_j), read in (1/2)Z[t]/Z[t]) and q_num, a length-k
vector over Z4[t] (the numerator of q(e_i), read in (1/2)Z[t]/2Z[t]).
Polynomials over F2 are int bitmasks, Z4[t] values are (lo, hi) bit pairs;
see kernels.  Symmetry, nonsingularity (det b_num = 1) and the mod-2
compatibility q_num(e_i) = b_num(i, i) are enforced on construction, in
that order; from_json_dict first refuses a form above MAX_FORM_WORK (see
form_work).

The quadratic law q(x + y) = q(x) + q(y) + 2b(x, y), q(f*x) = f^2*q(x)
determines q everywhere from basis values; eval_q implements it with
{0,1}-coefficient lifts, and the result is lift-independent.

On an even form q = 2*q2 with q2 over F2[t].  Its Arf invariant is a
class in F2[t]/{g^2 - g}, held as its canonical bitmask like
unil.UNil2Element.arf_bits.  The constructor finds it on a symplectic
basis over F2[t], with q2 carried through the moves that build the basis
(funcfield.symplectic_q2); the same pass proves b_num unimodular, so an
even form takes no determinant, and arf_even reads the class it found.
An odd form is checked by f2linalg.det.  Submodules, the sublagrangian
reduction and the lagrangian search are in unilcalc.lagrangian.
"""

from __future__ import annotations

from unilcalc._record import Record
from unilcalc.funcfield import symplectic_q2
from unilcalc.kernels import gf2_mul, z4_add, z4_mul, z4_sq_lift
from unilcalc.polynomials import idem_reduce, parse_f2, parse_z4, render, z4_from_terms

Z4_ZERO = (0, 0)
_SINGULAR = "b is singular: det(b_num) is not a unit in F2[t]"

# LinkingForm.from_json_dict refuses a form whose form_work is above this,
# before it is checked.  Rank 80 is read up to degree 88, rank 20 up to
# 4,572 and rank 8 up to 31,114.  At those three limits det on dense random
# entries, the check of an odd form, takes 23, 38 and 29 s on one x86_64
# core, and the symplectic pass of an even form 4, 6 and 16 s.  The
# benchmark's rank-20 forms (degree about 30) need 5.3e6
MAX_FORM_WORK = 4_000_000_000


def form_work(rank, degree):
    """Estimated cost of checking a form of this rank whose entries have
    degree at most degree (det, or the symplectic pass of an even form),
    of its sublagrangian reduction and of its Arf invariant, in units of
    about 10 ns of pure Python on x86_64.  Euclid on column j works on
    entries whose degree grows to about j*degree, so the multiplies cost
    rank^4 * degree word operations while the operands fit in a few
    machine words, and gf2_mul's shifts add a factor of their length above
    about 1024 bits.  Fitted to det on dense random matrices: rank 8-40,
    degree 1,000-65,536.  The symplectic pass stays below it: near
    MAX_FORM_WORK it takes 17-56% of det's time."""
    return rank**4 * (degree + 1) * (degree + 1024) // 1024


def entry_degree(b_num, q_num):
    """The largest degree of an entry of b_num or q_num; -1 when all are 0."""
    bits = [x.bit_length() for row in b_num for x in row] + [(lo | hi).bit_length() for lo, hi in q_num]
    return max(bits, default=0) - 1


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
        if is_even(self):
            # q of an even form is 2*q2, so its numerator is (0, q2)
            try:
                pairs = symplectic_q2(self.b_num, [hi for _, hi in self.q_num])
            except ValueError:
                raise ValueError(_SINGULAR) from None
            total = 0
            for qu, qv in pairs:
                total ^= gf2_mul(qu, qv)
            # outside _fields, so equality and hash see only the form
            object.__setattr__(self, "_arf", idem_reduce(total))
        else:
            from unilcalc.f2linalg import det

            if det(self.b_num) != 1:
                raise ValueError(_SINGULAR)
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
        degree = entry_degree(b, q)
        work = form_work(k, degree)
        if work > MAX_FORM_WORK:
            raise ValueError(
                f"a form of rank {k} with entries of degree up to {degree} is too large: "
                f"its work estimate {work} is above the limit {MAX_FORM_WORK}"
            )
        return cls(k, b, q)


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
    b = tuple(tuple(z4_from_terms((k, x) for (k, _), x in e.terms)[0] for e in row) for row in c.psi0)
    q = tuple(z4_from_terms((k, -x) for (k, _), x in c.psi1[i][i].terms) for i in range(c.rank))
    return LinkingForm(c.rank, b, q)


def is_even(form):
    """True when b(x, x) is integral for all x; on the numerator encoding
    this is b_num(i, i) = 0 for all i (cross terms of b(x, x) cancel mod 2)."""
    return all(form.b_num[i][i] == 0 for i in range(form.rank))


def arf_even(form):
    """Arf invariant of an even form, as the canonical bitmask of its class
    in F2[t]/{g^2 - g} (see polynomials.idem_reduce).

    b_num is alternating and unimodular over F2[t], so it has a symplectic
    basis (u_i, v_i) over F2[t] itself, and the class of sum q2(u_i) *
    q2(v_i), q = 2 q2, does not depend on the basis.  The constructor
    summed it over the basis its unimodularity pass built
    (funcfield.symplectic_q2), so q is never evaluated on coordinates.
    The class is also the class in F2(t)/{g^2 - g}: if g^2 + g is a
    polynomial then so is g, so F2[t]/{g^2 - g} embeds there.
    """
    if not is_even(form):
        raise ValueError("Arf invariant needs an even form")
    return form._arf
