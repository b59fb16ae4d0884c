"""Exact univariate polynomials over Z, F2 and Z4, plus the two quotient
normal forms the switch calculus runs on.

Coefficient rings are tagged by name.  F2 and Z4 coefficients are stored as
canonical residues (0..1, 0..3).  The textual canonical form is
``coeff*t^exp`` terms joined by ``+`` with exponents descending, e.g.
``3*t^2+2*t^1+1*t^0``; the parser additionally accepts the shorthands
``t``, ``t^k``, bare integers and signed coefficients, and a coefficient
written as a fraction a/b when its value is an integer.

The quotient rings work on the bitmasks of unilcalc.kernels: an int for
F2[t], a (lo, hi) pair for Z4[t].

* idem_reduce: F2[t] modulo the subgroup {f^2 - f}.  Confluent rewrite
  t^(2k) -> t^k for k >= 1; canonical representatives are supported on
  exponent 0 and the odd exponents.
* versch_reduce: t*Z4[t] modulo the subgroup {2p(t^2) - 2p(t)}.  For an even
  exponent 2k with coefficient 2 or 3, subtract 2(t^(2k) - t^k); canonical
  representatives have even-exponent coefficients in {0, 1}.

even_odd_decompose splits p in F2[t] as p = p_ev^2 + t*p_od^2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

RINGS = ("Z", "F2", "Z4")

_MOD = {"F2": 2, "Z4": 4}

# parse_poly builds a dense coefficient tuple, so it refuses exponents above
# this before allocating anything
MAX_EXPONENT = 1 << 16
# parse_poly refuses a coefficient numerator or denominator with more digits
# than this before converting it; it stays below Python's own default limit
# on int/str conversion (4300 digits), whose message names no position
MAX_COEFFICIENT_DIGITS = 4000


def _canon(ring, c):
    m = _MOD.get(ring)
    return c % m if m else int(c)


@dataclass(frozen=True)
class Polynomial:
    """Immutable dense polynomial; coeffs[k] is the coefficient of t^k."""

    ring: str
    coeffs: tuple

    def __post_init__(self):
        if self.ring not in RINGS:
            raise ValueError(f"unknown ring {self.ring!r}")
        cs = [_canon(self.ring, c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls, ring):
        return cls(ring, ())

    @classmethod
    def one(cls, ring):
        return cls(ring, (1,))

    @classmethod
    def t(cls, ring):
        return cls(ring, (0, 1))

    @classmethod
    def monomial(cls, ring, k, c=1):
        return cls(ring, (0,) * k + (c,))

    @property
    def degree(self):
        """Degree, with -1 as the zero-polynomial sentinel."""
        return len(self.coeffs) - 1

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _canon(self.ring, 0)

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.ring != self.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            self.ring,
            tuple(self.coefficient(k) + other.coefficient(k) for k in range(n)),
        )

    def __neg__(self):
        return Polynomial(self.ring, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(self.ring, tuple(c * other for c in self.coeffs))
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.ring)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(self.ring, tuple(out))

    __rmul__ = __mul__

    def map_ring(self, ring):
        """Reinterpret coefficients in another ring (reduction or lift)."""
        return Polynomial(ring, self.coeffs)

    def to_bits(self):
        if self.ring != "F2":
            raise ValueError("to_bits needs an F2 polynomial")
        return sum(1 << k for k, c in enumerate(self.coeffs) if c)

    @classmethod
    def from_bits(cls, bits):
        return cls("F2", tuple((bits >> k) & 1 for k in range(bits.bit_length())))

    def to_z4pair(self):
        if self.ring != "Z4":
            raise ValueError("to_z4pair needs a Z4 polynomial")
        lo = hi = 0
        for k, c in enumerate(self.coeffs):
            lo |= (c & 1) << k
            hi |= (c >> 1) << k
        return lo, hi

    @classmethod
    def from_z4pair(cls, lo, hi):
        n = max(lo.bit_length(), hi.bit_length())
        return cls("Z4", tuple(((lo >> k) & 1) + 2 * ((hi >> k) & 1) for k in range(n)))

    def __str__(self):
        if self.is_zero():
            return "0"
        out = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if not c:
                continue
            if not out:
                out.append(f"{c}*t^{k}")
            elif c < 0:
                out.append(f"-{-c}*t^{k}")
            else:
                out.append(f"+{c}*t^{k}")
        return "".join(out)

    __repr__ = __str__


_TERM_RE = re.compile(
    r"""^(?:
        (?P<ct>[+-]?\d+(?:/\d+)?)\*t(?:\^(?P<e1>-?\d+))?   # c*t or c*t^k
      | (?P<st>[+-]?)t(?:\^(?P<e2>-?\d+))?                 # t, -t, t^k
      | (?P<c>[+-]?\d+(?:/\d+)?)                           # bare coefficient
    )$""",
    re.VERBOSE,
)


def _split_terms(text):
    """Split on top-level +/- while keeping the sign with each term."""
    out = []
    cur = ""
    cur_pos = 0
    for i, ch in enumerate(text):
        if ch in "+-" and cur.strip("+- ") != "" and not cur.rstrip().endswith(("*", "^", "/")):
            out.append((cur, cur_pos))
            cur = ch
            cur_pos = i
        else:
            cur += ch
    out.append((cur, cur_pos))
    return out


def _exponent(text, pos):
    """The exponent spelled by text (1 when absent), checked to lie in
    0..MAX_EXPONENT; an over-long digit string is refused unread."""
    if text is None:
        return 1
    digits = text.lstrip("-").lstrip("0") or "0"
    if text[0] == "-" and digits != "0":
        raise ValueError(f"negative exponent at position {pos}")
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
        raise ValueError(f"exponent above the limit {MAX_EXPONENT} at position {pos}")
    return int(digits)


def _coefficient(text, pos):
    """The Fraction spelled by text ([+-]digits[/digits]).  A numerator or
    denominator of more than MAX_COEFFICIENT_DIGITS digits, leading zeros
    aside, is refused unread, and so is a zero denominator."""
    num, _, den = text.lstrip("+-").partition("/")
    num, den = num.lstrip("0") or "0", den.lstrip("0") or ("1" if not den else "0")
    if max(len(num), len(den)) > MAX_COEFFICIENT_DIGITS:
        raise ValueError(f"coefficient above {MAX_COEFFICIENT_DIGITS} digits at position {pos}")
    if den == "0":
        raise ValueError(f"zero denominator at position {pos}")
    sign = -1 if text.startswith("-") else 1
    return Fraction(sign * int(num), int(den))


def parse_poly(text, ring):
    """Parse the textual polynomial grammar; errors carry the offset in
    text as given, leading blanks included."""
    if ring not in RINGS:
        raise ValueError(f"unknown ring {ring!r}")
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial at position 0")
    lead = len(text) - len(text.lstrip())
    coeffs = {}
    for raw, pos in _split_terms(s):
        pos += lead
        term = raw.replace(" ", "")
        if term in ("+", "-", ""):
            raise ValueError(f"dangling sign at position {pos}")
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"bad term {raw.strip()!r} at position {pos}")
        if m.group("ct") is not None:
            c = _coefficient(m.group("ct"), pos)
            e = _exponent(m.group("e1"), pos)
        elif m.group("st") is not None:
            c = Fraction(-1 if m.group("st") == "-" else 1)
            e = _exponent(m.group("e2"), pos)
        else:
            c = _coefficient(m.group("c"), pos)
            e = 0
        if c.denominator != 1:
            raise ValueError(f"fractional coefficient at position {pos}")
        c = int(c)
        coeffs[e] = coeffs.get(e, 0) + c
    n = max(coeffs) + 1
    return Polynomial(ring, tuple(coeffs.get(k, 0) for k in range(n)))


def compact_str(p):
    """Human rendering: unit coefficients and ^1 exponents are omitted."""
    if p.is_zero():
        return "0"
    out = []
    for k in range(p.degree, -1, -1):
        c = p.coefficient(k)
        if not c:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            tpart = "t" if k == 1 else f"t^{k}"
            body = tpart if abs(c) == 1 else f"{abs(c)}*{tpart}"
        if c < 0:
            out.append(f"-{body}")
        elif out:
            out.append(f"+{body}")
        else:
            out.append(body)
    return "".join(out)


def even_odd_decompose(p):
    """Split p in F2[t] as p = p_ev^2 + t*p_od^2; returns (p_ev, p_od)."""
    if p.ring != "F2":
        raise ValueError("even/odd decomposition works over F2")
    ev = tuple(p.coefficient(2 * k) for k in range((p.degree // 2) + 1))
    od = tuple(p.coefficient(2 * k + 1) for k in range((p.degree + 1) // 2))
    return Polynomial("F2", ev), Polynomial("F2", od)


def idem_reduce(bits):
    """Canonical representative of an F2[t] bitmask modulo {f^2 - f}."""
    d = bits.bit_length() - 1
    for e in range(d - d % 2, 1, -2):
        if bits >> e & 1:
            bits ^= (1 << e) | (1 << (e // 2))
    return bits


def versch_reduce(lo, hi):
    """Canonical representative of a Z4[t] pair modulo {2p(t^2) - 2p(t)}.

    The relations have even coefficients, so lo is already canonical; on
    the hi plane, where 2*t^k is bit k, subtracting 2(t^(2k) - t^k) is the
    rewrite of idem_reduce.
    """
    if (lo | hi) & 1:
        raise ValueError("nonzero constant term")
    return lo, idem_reduce(hi)
