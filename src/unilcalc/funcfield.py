"""The rational function field F2(t) and its Artin-Schreier quotient
F2(t)/{g^2 - g}.

Polynomials are bit-packed ints (see kernels).  A class in the quotient is
held in partial-fraction normal form: a polynomial part supported on
exponent 0 and the odd exponents, plus, for each monic irreducible pole,
numerators at odd pole orders only.  Both constraints come from the same
rewrite: squares are rewritten one level down, and squaring is a bijection
on each residue field, so every even level empties.
"""

from __future__ import annotations

from dataclasses import dataclass

from unilcalc.kernels import gf2_deg, gf2_divmod, gf2_gcd, gf2_mod, gf2_mul, gf2_spread
from unilcalc.polynomials import Polynomial, idem_reduce


def gf2_gcdext(a, b):
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = gf2_divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 ^ gf2_mul(q, u1)
        v0, v1 = v1, v0 ^ gf2_mul(q, v1)
    return a, u0, v0


def gf2_pow(a, n):
    r = 1
    while n:
        if n & 1:
            r = gf2_mul(r, a)
        a = gf2_mul(a, a)
        n >>= 1
    return r


def is_irreducible(f):
    d = gf2_deg(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    # t^(2^d) == t mod f, and no factor of degree <= d/2
    b = 2  # the polynomial t
    for _ in range(d // 2):
        b = gf2_mod(gf2_mul(b, b), f)
        if gf2_gcd(b ^ 2, f) != 1:
            return False
    for _ in range(d - d // 2):
        b = gf2_mod(gf2_mul(b, b), f)
    return b == 2


def _derivative(f):
    """f' over F2: the odd-exponent bits of f, shifted down by one."""
    even = ((1 << 2 * f.bit_length()) - 1) // 3  # 1 at exponents 0, 2, 4, ...
    return (f >> 1) & even


def _sqrt_of_square(f):
    """The square root of a square f in F2[t]: f(t^2) -> f(t), by keeping
    the even-exponent bits."""
    return int(bin(f)[:1:-1][::2][::-1], 2)


def _squarefree(f):
    """Squarefree decomposition: [(g, m), ...] with each g squarefree of
    degree >= 1, the g pairwise coprime, and f = prod g^m.

    Yun's loop over c = gcd(f, f') collects the factors whose multiplicity
    is odd; what is left in c is a square (every multiplicity even), whose
    square root is decomposed again with the multiplicities doubled.
    """
    out = []
    c = gf2_gcd(f, _derivative(f))
    w = gf2_divmod(f, c)[0]
    m = 1
    while w != 1:
        y = gf2_gcd(w, c)
        z = gf2_divmod(w, y)[0]
        if z != 1:
            out.append((z, m))
        w = y
        c = gf2_divmod(c, y)[0]
        m += 1
    if c != 1:
        out += [(g, 2 * e) for g, e in _squarefree(_sqrt_of_square(c))]
    return out


def _distinct_degree(g):
    """[(g_d, d), ...] for squarefree g, g_d the product of the degree-d
    irreducible factors of g: t^(2^d) - t is the product of every monic
    irreducible whose degree divides d."""
    out = []
    h = 2  # t^(2^d) mod g
    d = 0
    while gf2_deg(g) >= 2 * (d + 1):
        d += 1
        h = gf2_mod(gf2_spread(h), g)
        p = gf2_gcd(h ^ 2, g)
        if p != 1:
            out.append((p, d))
            g = gf2_divmod(g, p)[0]
            h = gf2_mod(h, g)
    if g != 1:
        out.append((g, gf2_deg(g)))
    return out


def _equal_degree(g, d):
    """The irreducible factors of g, a squarefree product of irreducibles
    of degree d, split by gcd(Tr(t^j), g) with the trace
    Tr(a) = a + a^2 + ... + a^(2^(d-1)) mod g.

    Tr is F2-linear and maps onto F2 modulo each factor, so the vectors of
    its residues span F2^r; they cannot all be 0 or all 1 on the basis
    t^0 .. t^(deg g - 1), and t^0 = 1 gives a constant vector, so some
    t^j with 0 < j < deg g splits g whenever r >= 2.
    """
    n = gf2_deg(g)
    if n == d:
        return [g]
    for j in range(1, n):
        a = tr = gf2_mod(1 << j, g)
        for _ in range(d - 1):
            a = gf2_mod(gf2_spread(a), g)
            tr ^= a
        p = gf2_gcd(tr, g)
        if 0 < gf2_deg(p) < n:
            return _equal_degree(p, d) + _equal_degree(gf2_divmod(g, p)[0], d)
    raise RuntimeError(f"no trace split of {g:#b} into degree-{d} factors")


def factor(f):
    """Monic irreducible factorization, as a sorted tuple of (pi, mult).

    Squarefree, then distinct-degree, then equal-degree factorization;
    the product of the factors is checked against f.
    """
    if f == 0:
        raise ValueError("cannot factor 0")
    out = [
        (pi, m)
        for g, m in _squarefree(f)
        for gd, d in _distinct_degree(g)
        for pi in _equal_degree(gd, d)
    ]
    prod = 1
    for pi, m in out:
        prod = gf2_mul(prod, gf2_pow(pi, m))
    if prod != f:
        raise RuntimeError(f"factorization of {f:#b} does not multiply back")
    return tuple(sorted(out))


def sqrt_mod(a, pi):
    """The unique square root of a in F2[t]/pi (pi irreducible)."""
    r = gf2_mod(a, pi)
    for _ in range(gf2_deg(pi) - 1):
        r = gf2_mod(gf2_mul(r, r), pi)
    return r


@dataclass(frozen=True)
class F2Rational:
    """num/den over F2[t], normalized so gcd(num, den) = 1."""

    num: int
    den: int = 1

    def __post_init__(self):
        if self.den == 0:
            raise ZeroDivisionError("zero denominator")
        g = gf2_gcd(self.num, self.den)
        if g > 1:
            object.__setattr__(self, "num", gf2_divmod(self.num, g)[0])
            object.__setattr__(self, "den", gf2_divmod(self.den, g)[0])

    def __add__(self, other):
        return F2Rational(
            gf2_mul(self.num, other.den) ^ gf2_mul(other.num, self.den),
            gf2_mul(self.den, other.den),
        )

    __sub__ = __add__

    def __mul__(self, other):
        return F2Rational(gf2_mul(self.num, other.num), gf2_mul(self.den, other.den))

    def inverse(self):
        if self.num == 0:
            raise ZeroDivisionError("inverse of zero")
        return F2Rational(self.den, self.num)

    def is_zero(self):
        return self.num == 0

    def __str__(self):
        n = str(Polynomial.from_bits(self.num))
        if self.den == 1:
            return n
        return f"({n})/({Polynomial.from_bits(self.den)})"


def partial_fractions(num, den):
    """num/den as (poly_part_bits, {pi: {level: numerator}}).

    Numerators at level j satisfy deg < deg pi; levels run 1..multiplicity.
    """
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    g = gf2_gcd(num, den)
    if g > 1:
        num, den = gf2_divmod(num, g)[0], gf2_divmod(den, g)[0]
    poly, r = gf2_divmod(num, den)
    poles = {}
    pieces = [(r, factor(den))]
    while pieces:
        r, fs = pieces.pop()
        if r == 0 or not fs:
            continue
        pi, e = fs[0]
        pie = gf2_pow(pi, e)
        if len(fs) == 1:
            q, rr = gf2_divmod(r, pie)
            poly ^= q
            levels = poles.setdefault(pi, {})
            for j in range(e, 0, -1):  # pi-adic digits of rr, lowest first
                rr, d = gf2_divmod(rr, pi)
                if d:
                    levels[j] = levels.get(j, 0) ^ d
            continue
        rest = 1
        for p2, e2 in fs[1:]:
            rest = gf2_mul(rest, gf2_pow(p2, e2))
        g1, u, v = gf2_gcdext(pie, rest)
        if g1 != 1:
            raise RuntimeError("partial-fraction factors are not coprime")
        # r/(pie*rest) = r*v/pie + r*u/rest
        pieces.append((gf2_mul(r, v), (fs[0],)))
        pieces.append((gf2_mul(r, u), fs[1:]))
    return poly, {pi: lv for pi, lv in poles.items() if any(lv.values())}


@dataclass(frozen=True)
class RationalFunctionClass:
    """Canonical representative in F2(t)/{g^2 - g}.

    poly_rep: F2 bitmask supported on exponent 0 and odd exponents.
    pole_parts: tuple of (pi_bits, ((odd_level, numerator_bits), ...)),
    sorted, numerators reduced mod pi.
    """

    poly_rep: int
    pole_parts: tuple = ()

    def is_zero(self):
        return not self.poly_rep and not self.pole_parts

    def __add__(self, other):
        acc = {pi: dict(lv) for pi, lv in self.pole_parts}
        for pi, lv in other.pole_parts:
            dst = acc.setdefault(pi, {})
            for j, a in lv:
                dst[j] = dst.get(j, 0) ^ a
        parts = _pack_poles(acc)
        # canonical polynomial parts are closed under addition
        return RationalFunctionClass(self.poly_rep ^ other.poly_rep, parts)

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        if self.poly_rep:
            terms.append(str(Polynomial.from_bits(self.poly_rep)))
        for pi, lv in self.pole_parts:
            for j, a in lv:
                terms.append(
                    f"({Polynomial.from_bits(a)})/({Polynomial.from_bits(pi)})^{j}"
                )
        return " + ".join(terms)

    __repr__ = __str__


def _pack_poles(acc):
    out = []
    for pi in sorted(acc):
        lv = {j: a for j, a in acc[pi].items() if a}
        if lv:
            out.append((pi, tuple(sorted(lv.items()))))
    return tuple(out)


def artin_schreier_reduce(num, den=None):
    """Canonical class of num/den (F2 polynomials or bit-packed ints)."""
    if isinstance(num, F2Rational):
        num, den = num.num, num.den
    if isinstance(num, Polynomial):
        num = num.to_bits()
    if isinstance(den, Polynomial):
        den = den.to_bits()
    if den is None:
        den = 1
    poly, poles = partial_fractions(num, den)
    out = {}
    for pi, levels in poles.items():
        levels = dict(levels)
        for m in range(max(levels), 1, -1):
            a = levels.get(m, 0)
            if m % 2 or not a:
                continue
            # single rewrite empties level m: with c = sqrt(a) mod pi and
            # c^2 = w*pi + a, the relation (c/pi^(m/2))^2 - c/pi^(m/2)
            # replaces a/pi^m by w/pi^(m-1) + c/pi^(m/2)
            c = sqrt_mod(a, pi)
            w, r = gf2_divmod(gf2_mul(c, c), pi)
            if r != a:
                raise RuntimeError("sqrt_mod(a, pi) does not square back to a")
            levels[m] = 0
            levels[m - 1] = levels.get(m - 1, 0) ^ w
            levels[m // 2] = levels.get(m // 2, 0) ^ c
        out[pi] = levels
    return RationalFunctionClass(idem_reduce(poly), _pack_poles(out))
