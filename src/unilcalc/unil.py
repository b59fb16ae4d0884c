"""The groups UNil_2(Z;Z,Z) and UNil_3(Z;Z,Z) in explicit coordinates.

UNil_2 is an infinite sum of Z_2's, realized as Arf classes in
t*F2[t]/{f^2 - f}.  UNil_3 carries coordinates

    (x, y)  in  t*Z4[t]/{2p(t^2) - 2p(t)}  x  t*F2[t]

with x the j1-part and y the j2-part.  The switch involution (swapping
the two free factors of Z2 * Z2) acts by (x, y) |-> (x, pi(x) + y) on
UNil_3 and as the identity on UNil_2.

Coordinates are the bitmasks of unilcalc.kernels: the UNil_2 class and y
are ints, x is a (lo, hi) pair, each a canonical representative.  Text
is read and printed straight from them (polynomials.parse_f2, parse_z4 and
render); a Polynomial over Z appears only as the parameters p and g of
the generator dictionary.
"""

from itertools import product

from unilcalc._record import Record
from unilcalc.kernels import gf2_mul, z4_add, z4_neg
from unilcalc.polynomials import idem_reduce, parse_f2, parse_z4, render, versch_reduce

_ZERO_X = (0, 0)


class UNil2Element(Record):
    """arf_bits: the canonical representative as an F2[t] bitmask, checked
    on construction."""

    _fields = ("arf_bits",)

    def __init__(self, arf_bits):
        object.__setattr__(self, "arf_bits", arf_bits)
        self.__post_init__()

    def __post_init__(self):
        if self.arf_bits & 1:
            raise ValueError("UNil2 element has nonzero constant term")
        if idem_reduce(self.arf_bits) != self.arf_bits:
            raise ValueError("UNil2 element is not a canonical representative")

    @classmethod
    def zero(cls):
        return cls(0)

    def __add__(self, other):
        # an element of the other UNil group is refused with TypeError
        if other.__class__ is not UNil2Element:
            return NotImplemented
        # canonical representatives are closed under addition
        return UNil2Element(self.arf_bits ^ other.arf_bits)

    __sub__ = __add__

    def __neg__(self):
        return self

    def is_zero(self):
        return not self.arf_bits

    def literal(self, compact=False):
        """'[p]' with p rendered by polynomials.render."""
        return f"[{render(self.arf_bits, compact)}]"

    __str__ = __repr__ = literal


class UNil3Element(Record):
    """x: the canonical representative as a Z4[t] (lo, hi) pair; y: an
    F2[t] bitmask.  Both are checked on construction."""

    _fields = ("x", "y")

    def __init__(self, x, y):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        self.__post_init__()

    def __post_init__(self):
        if self.y & 1:
            raise ValueError("y-coordinate has nonzero constant term")
        lo, hi = self.x
        if (lo | hi) & 1:
            raise ValueError("x-coordinate has nonzero constant term")
        if idem_reduce(hi) != hi:
            raise ValueError("x-coordinate is not a canonical representative")

    @classmethod
    def zero(cls):
        return cls(_ZERO_X, 0)

    def __add__(self, other):
        if other.__class__ is not UNil3Element:
            return NotImplemented
        return UNil3Element(versch_reduce(*z4_add(*self.x, *other.x)), self.y ^ other.y)

    def __neg__(self):
        return UNil3Element(versch_reduce(*z4_neg(*self.x)), self.y)

    def __sub__(self, other):
        return self + (-other)

    def doubled(self):
        return UNil3Element(versch_reduce(0, self.x[0]), 0)

    def is_zero(self):
        return self.x == _ZERO_X and not self.y

    def literal(self, compact=False):
        """'j1[x] + j2[y]' with the coordinates rendered by
        polynomials.render, zero coordinates left out; '0' for the zero
        element."""
        x_text = render(self.x, compact) if self.x != _ZERO_X else ""
        return unil3_literal(x_text, render(self.y, compact) if self.y else "")

    __str__ = __repr__ = literal

    def to_json_dict(self):
        return {"x": render(self.x), "y": render(self.y)}

    @classmethod
    def from_json_dict(cls, data):
        return cls(versch_reduce(*parse_z4(data["x"])), parse_f2(data["y"]))


def unil3_literal(x_text, y_text):
    """The UNil_3 literal 'j1[x_text] + j2[y_text]' of rendered coordinates,
    with a coordinate whose text is empty (a zero one) left out; '0' when
    both are.  UNil3Element.literal and the classify tables join their
    coordinates' text here."""
    if not x_text:
        return f"j2[{y_text}]" if y_text else "0"
    return f"j1[{x_text}] + j2[{y_text}]" if y_text else f"j1[{x_text}]"


def j1(x):
    """The class with x-coordinate [x], x a Z4[t] (lo, hi) pair."""
    return UNil3Element(versch_reduce(*x), 0)


def j2(y):
    """The class with y-coordinate y, an F2[t] bitmask."""
    return UNil3Element(_ZERO_X, y)


def pi_map(x):
    """Reduce each coefficient of the canonical representative mod 2: the
    lo plane.

    Well defined on classes: the relations 2(t^{2k} - t^k) vanish mod 2.
    """
    return x[0]


def switch_unil3(e):
    return UNil3Element(e.x, e.y ^ e.x[0])


def B_coords(e):
    return (e.x[0], e.y)


def _low_exponent(bits):
    return (bits & -bits).bit_length() - 1


def _resolve_shape(p, g):
    """Rewrite [N_{p,g}] toward a j1 generator shape.

    The class only depends on p mod 4 and g mod 2, and t-factors move
    between the slots at the cost of one switch: sw[N_{tp,g}] = [N_{p,tg}].
    Returns (sw_parity, P as a Z4 pair, G as an F2 bitmask) where either
    G = 1 and P(0) = 0 (the j1 shape) or (P, G) is a terminal unresolved
    symbol.
    """
    lo, hi = p.mod4()
    G = g.mod4()[0]
    if G:
        n = _low_exponent(G)
        G >>= n
        lo, hi = lo << n, hi << n
    else:
        # with the second slot zero the switch costs nothing: pi of the
        # x-coordinate is [p*g] = 0, so all [N_{t^k p, 0}] agree
        n = max(_low_exponent(lo | hi), 0)
        lo, hi = lo >> n, hi >> n
    return n % 2, (lo, hi), G


def n_class_combination(terms):
    """Evaluate a formal integer combination of classes [N_{p,g}].

    terms: iterable of (coefficient, p, g) over Z.  Shapes that rewrite
    to j1 generators contribute concrete coordinates; every remaining
    symbol must cancel exactly, else the combination is outside the
    dictionary and a ValueError is raised.
    """
    total = UNil3Element.zero()
    residue = {}
    for coeff, p, g in terms:
        parity, P, G = _resolve_shape(p, g)
        if G == 1 and not (P[0] | P[1]) & 1:
            e = UNil3Element(versch_reduce(*P), 0)
            if parity:
                e = switch_unil3(e)
            # UNil_3 has exponent 4, and coeff % 4 >= 0 also for coeff < 0
            for _ in range(coeff % 4):
                total = total + e
            continue
        if P == _ZERO_X and not G:
            continue  # N_{0,0} is hyperbolic, class zero
        key = (P, G)
        residue[key] = residue.get(key, 0) + coeff
        if parity and coeff % 2:
            # sw(A) - A = (0, pi(x_A)) and pi of the x-coordinate of
            # [N_{P,G}] is [P*G]; only parity survives in the F2 slot
            total = total + UNil3Element(_ZERO_X, gf2_mul(P[0], G))
    bad = [k for k, c in residue.items() if c]
    if bad:
        P, G = bad[0]
        raise ValueError(
            "shape outside the generated dictionary: "
            f"N_{{{render(P)},{render(G)}}} does not cancel"
        )
    return total


def orbit_count(group, degree_cutoff):
    """The number of switch-orbits orbit_reps(group, degree_cutoff) yields,
    in closed form.

    With o odd and e even exponents in 1..d: UNil_2 has 2^o elements, all
    fixed; UNil_3 has 4^o * 2^e choices of x and 2^d of y, and (x, y) is
    fixed iff pi(x) = 0, i.e. x has coefficients in {0, 2} at odd and 0 at
    even exponents, so 2^o * 2^d are fixed.  Burnside gives the orbits.
    """
    d = degree_cutoff
    if d < 0:
        raise ValueError("degree cutoff must be >= 0")
    odd, even = (d + 1) // 2, d // 2
    if group == "UNil2":
        return 1 << odd
    if group == "UNil3":
        return ((1 << 2 * odd + even + d) + (1 << odd + d)) // 2
    raise ValueError("group must be 'UNil2' or 'UNil3'")


def _mask(cs):
    """The F2[t] bitmask of the parities of cs, cs[i] the coefficient of t^(i+1)."""
    return sum((c & 1) << k for k, c in enumerate(cs, 1))


def orbit_reps(group, degree_cutoff):
    """Yield the coordinates of the switch-orbit representatives of the
    canonical elements supported on exponents <= degree_cutoff, each the
    lex-least member of its orbit, in lexicographic coefficient order
    (``product`` order): the arf_bits on UNil_2, where the switch is the
    identity, and the (x, y) pair on UNil_3.  They are canonical by
    construction, so no element is built or checked.

    On UNil_3 the orbit of (x, y) is {(x, y), (x, y + pi(x))}: a fixed
    point when pi(x) = 0, and otherwise a pair whose two y's first differ
    at the lowest exponent of pi(x), so the lex-least member has a 0 there.
    """
    d = degree_cutoff
    if d < 0:
        raise ValueError("degree cutoff must be >= 0")
    if group == "UNil2":
        ranges = [range(2) if k % 2 else range(1) for k in range(1, d + 1)]
        yield from map(_mask, product(*ranges))
    elif group == "UNil3":
        ranges = [range(2) if k % 2 == 0 else range(4) for k in range(1, d + 1)]
        ys = [_mask(ymask) for ymask in product((0, 1), repeat=d)]
        for xcs in product(*ranges):
            x = (_mask(xcs), _mask(c >> 1 for c in xcs))
            low = x[0] & -x[0]  # the lowest exponent of pi(x), as a bitmask
            for y in ys:
                if not y & low:
                    yield x, y
    else:
        raise ValueError("group must be 'UNil2' or 'UNil3'")


def _moved(message, offset):
    """An error message about a polynomial starting at offset, with its
    position made absolute, or placed at offset when it names none."""
    head, sep, pos = message.rpartition(" at position ")
    if sep and pos.isdigit():
        return f"{head}{sep}{offset + int(pos)}"
    return f"{message} at position {offset}"


def parse_unil3(text):
    """Parse element literals like 'j1[2*t^3+t] + j2[t]' (or '0')."""
    s = text
    n = len(s)

    def skip_ws(i):
        while i < n and s[i].isspace():
            i += 1
        return i

    if s.strip() == "0":
        return UNil3Element.zero()
    total = UNil3Element.zero()
    i = skip_ws(0)
    if i == n:
        raise ValueError("empty element at position 0")
    first = True
    while i < n:
        if not first:
            if s[i] != "+":
                raise ValueError(f"expected '+' at position {i}")
            i = skip_ws(i + 1)
        tag = s[i : i + 2]
        if tag not in ("j1", "j2") or i + 2 >= n or s[i + 2] != "[":
            raise ValueError(f"expected j1[...] or j2[...] at position {i}")
        close = s.find("]", i + 3)
        if close < 0:
            raise ValueError(f"unterminated bracket at position {i + 2}")
        inner = s[i + 3 : close]
        try:
            e = j1(parse_z4(inner)) if tag == "j1" else j2(parse_f2(inner))
        except ValueError as exc:
            raise ValueError(_moved(str(exc), i + 3)) from None
        total = total + e
        i = skip_ws(close + 1)
        first = False
    return total
