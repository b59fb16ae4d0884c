"""Exact univariate polynomials: dense ones over Z, the text of F2[t] and
Z4[t] bitmasks, and the two quotient normal forms the switch calculus runs
on.

Polynomial is the dense Z[t] type of the paper's parameters p and g.
F2[t] and Z4[t] polynomials are the bitmasks of unilcalc.kernels, an int
for F2[t] and a (lo, hi) pair for Z4[t]; parse_f2 and parse_z4 read text
straight into them, and render prints them, or a Polynomial.  The one
packer of coefficients into bits is z4_from_terms: it turns (exponent,
integer coefficient) pairs into a Z4[t] pair, whose lo plane is their
F2[t] bitmask.  The textual canonical form is ``coeff*t^exp`` terms joined
by ``+`` with exponents descending, e.g. ``3*t^2+2*t^1+1*t^0``, and
render's compact form drops unit coefficients and ``^1``, e.g.
``3*t^2+2*t+1``.  The parsers additionally accept the shorthands ``t``,
``t^k``, bare integers and signed coefficients, and a coefficient written
as a fraction a/b when its value is an integer; parse_f2 and parse_z4
reduce the integer coefficients mod 2 and mod 4.

* idem_reduce: F2[t] modulo the subgroup {f^2 - f}.  Confluent rewrite
  t^(2k) -> t^k for k >= 1; canonical representatives are supported on
  exponent 0 and the odd exponents.
* versch_reduce: t*Z4[t] modulo the subgroup {2p(t^2) - 2p(t)}.  For an even
  exponent 2k with coefficient 2 or 3, subtract 2(t^(2k) - t^k); canonical
  representatives have even-exponent coefficients in {0, 1}.
"""

from __future__ import annotations

import re
from operator import index

from unilcalc._record import Record

# the parsers refuse exponents above this before building anything from
# them: the bitmasks of parse_f2 and parse_z4 grow with the largest exponent
MAX_EXPONENT = 1 << 16
# the parsers refuse a coefficient numerator or denominator with more digits
# than this before converting it; it stays below Python's own default limit
# on int/str conversion (4300 digits), whose message names no position
MAX_COEFFICIENT_DIGITS = 4000


class Polynomial(Record):
    """Immutable dense polynomial over Z; coeffs[k] is the coefficient of t^k.
    The coefficients must be integers; trailing zeros are dropped."""

    _fields = ("coeffs",)

    def __post_init__(self):
        cs = []
        for k, c in enumerate(self.coeffs):
            try:
                cs.append(index(c))
            except TypeError:
                raise TypeError(
                    f"coefficient {k} is not an integer: {type(c).__name__} {c!r}"
                ) from None
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def t(cls):
        return cls((0, 1))

    @property
    def degree(self):
        """Degree, with -1 as the zero-polynomial sentinel."""
        return len(self.coeffs) - 1

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def is_zero(self):
        return not self.coeffs

    def mod4(self):
        """p mod 4 as a Z4[t] (lo, hi) pair; lo alone is p mod 2 as an F2[t]
        bitmask."""
        return z4_from_terms(enumerate(self.coeffs))

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(tuple(self.coefficient(k) + other.coefficient(k) for k in range(n)))

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(tuple(c * other for c in self.coeffs))
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def __str__(self):
        return render(self)

    __repr__ = __str__


def z4_from_terms(terms):
    """The Z4[t] (lo, hi) pair of (exponent, integer coefficient) pairs,
    each exponent at most once; a coefficient is read mod 4, a negative one
    too, since its low two bits are those of its residue.  lo alone is the
    F2[t] bitmask of the coefficients mod 2."""
    lo = hi = 0
    for e, c in terms:
        lo |= (c & 1) << e
        hi |= (c >> 1 & 1) << e
    return lo, hi


def _terms(p):
    """The (exponent, coefficient) pairs of p's nonzero terms, exponents
    descending; p is a Polynomial, an F2[t] bitmask or a Z4[t] pair."""
    if isinstance(p, Polynomial):
        return [(k, c) for k, c in reversed(tuple(enumerate(p.coeffs))) if c]
    lo, hi = (p, 0) if isinstance(p, int) else p
    # the binary digits, read once, keep this linear in the degree
    n = max(lo.bit_length(), hi.bit_length())
    digits = zip(f"{lo:0{n}b}", f"{hi:0{n}b}")
    return [(n - 1 - i, int(a) + 2 * int(b)) for i, (a, b) in enumerate(digits) if a == "1" or b == "1"]


def render(p, compact=False):
    """p as text: a Polynomial, an F2[t] bitmask or a Z4[t] (lo, hi) pair,
    in canonical form, or with compact=True without unit coefficients and
    ^1 exponents."""
    out = []
    for k, c in _terms(p):
        if not compact:
            body = f"{abs(c)}*t^{k}"
        elif k == 0:
            body = str(abs(c))
        else:
            tpart = "t" if k == 1 else f"t^{k}"
            body = tpart if abs(c) == 1 else f"{abs(c)}*{tpart}"
        out.append(f"-{body}" if c < 0 else f"+{body}" if out else body)
    return "".join(out) or "0"


_TERM_RE = re.compile(
    r"""^(?:
        (?P<ct>[+-]?\d+(?:/\d+)?)\*t(?:\^(?P<e1>-?\d+))?   # c*t or c*t^k
      | (?P<st>[+-]?)t(?:\^(?P<e2>-?\d+))?                 # t, -t, t^k
      | (?P<c>[+-]?\d+(?:/\d+)?)                           # bare coefficient
    )$""",
    re.VERBOSE,
)
# blanks are dropped from a term before it is matched, except where they
# separate two digits: "1 0*t" is a bad term, not 10*t
_SPLIT_DIGITS_RE = re.compile(r"\d +\d")


def _split_terms(text):
    """Split on top-level +/- while keeping the sign with each term: a sign
    starts a new term once the term so far holds a character other than
    "+", "-" and " ", and its last character that is not whitespace is
    not *, ^ or /.
    One pass, with each term sliced from text, so that a long run of signs
    costs linear time."""
    out = []
    start, body, last = 0, False, ""
    for i, ch in enumerate(text):
        if ch in "+-":
            if body and last not in ("*", "^", "/"):
                out.append((text[start:i], start))
                start, body = i, False
        elif ch != " ":
            body = True
        if not ch.isspace():
            last = ch
    out.append((text[start:], start))
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
    """The integer spelled by text ([+-]digits[/digits]), or None for a
    fraction whose denominator does not divide its numerator.  A numerator
    or denominator of more than MAX_COEFFICIENT_DIGITS digits, leading
    zeros aside, is refused unread, and so is a zero denominator."""
    num, _, den = text.lstrip("+-").partition("/")
    num, den = num.lstrip("0") or "0", den.lstrip("0") or ("1" if not den else "0")
    if max(len(num), len(den)) > MAX_COEFFICIENT_DIGITS:
        raise ValueError(f"coefficient above {MAX_COEFFICIENT_DIGITS} digits at position {pos}")
    if den == "0":
        raise ValueError(f"zero denominator at position {pos}")
    c, rem = divmod(int(num), int(den))
    if rem:
        return None
    return -c if text.startswith("-") else c


# an error quotes at most this many characters of a bad term; the position
# locates the rest
MAX_QUOTED_CHARS = 40


def _quote(term):
    """repr(term), cut to its first MAX_QUOTED_CHARS characters and an
    ellipsis when it is longer."""
    if len(term) <= MAX_QUOTED_CHARS:
        return repr(term)
    return f"{term[:MAX_QUOTED_CHARS]!r}..."


def _parse_terms(text):
    """The textual polynomial grammar as a dict {exponent: integer
    coefficient}, repeated exponents summed; errors carry the offset in
    text as given, leading blanks included."""
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
        if not m or (" " in raw and _SPLIT_DIGITS_RE.search(raw)):
            raise ValueError(f"bad term {_quote(raw.strip())} at position {pos}")
        if m.group("ct") is not None:
            c = _coefficient(m.group("ct"), pos)
            e = _exponent(m.group("e1"), pos)
        elif m.group("st") is not None:
            c = -1 if m.group("st") == "-" else 1
            e = _exponent(m.group("e2"), pos)
        else:
            c = _coefficient(m.group("c"), pos)
            e = 0
        if c is None:
            raise ValueError(f"fractional coefficient at position {pos}")
        coeffs[e] = coeffs.get(e, 0) + c
    return coeffs


def parse_f2(text):
    """An F2[t] bitmask from text, the coefficients reduced mod 2."""
    return parse_z4(text)[0]


def parse_z4(text):
    """A Z4[t] (lo, hi) pair from text, the coefficients reduced mod 4."""
    return z4_from_terms(_parse_terms(text).items())


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
