"""The groups UNil_2(Z;Z,Z) and UNil_3(Z;Z,Z) in explicit coordinates.

UNil_2 is an infinite sum of Z_2's, realized as Arf classes in
t*F2[t]/{f^2 - f}.  UNil_3 carries coordinates

    (x, y)  in  t*Z4[t]/{2p(t^2) - 2p(t)}  x  t*F2[t]

with x the j1-part and y the j2-part.  The switch involution (swapping
the two free factors of Z2 * Z2) acts by (x, y) |-> (x, pi(x) + y) on
UNil_3 and as the identity on UNil_2.
"""

from dataclasses import dataclass
from itertools import product

from unilcalc.polynomials import (
    IdemQuotientClass,
    Polynomial,
    VerschQuotientClass,
    idem_reduce,
    parse_poly,
    versch_reduce,
)

_ZERO_F2 = Polynomial.zero("F2")
_ZERO_Z4 = Polynomial.zero("Z4")


@dataclass(frozen=True)
class UNil2Element:
    arf_class: IdemQuotientClass

    def __post_init__(self):
        if self.arf_class.rep.coefficient(0):
            raise ValueError("UNil2 elements have zero constant term")

    @classmethod
    def zero(cls):
        return cls(IdemQuotientClass(_ZERO_F2))

    @classmethod
    def from_poly(cls, p):
        if p.ring == "Z":
            p = p.map_ring("F2")
        return cls(idem_reduce(p))

    def __add__(self, other):
        return UNil2Element(self.arf_class + other.arf_class)

    __sub__ = __add__

    def __neg__(self):
        return self

    def is_zero(self):
        return self.arf_class.is_zero()

    def __str__(self):
        return f"[{self.arf_class}]"

    __repr__ = __str__


@dataclass(frozen=True)
class UNil3Element:
    x: VerschQuotientClass
    y: Polynomial

    def __post_init__(self):
        if self.y.ring != "F2":
            raise ValueError("y-coordinate lives in t*F2[t]")
        if self.y.coefficient(0):
            raise ValueError("y-coordinate has zero constant term")

    @classmethod
    def zero(cls):
        return cls(VerschQuotientClass(_ZERO_Z4), _ZERO_F2)

    def __add__(self, other):
        return UNil3Element(self.x + other.x, self.y + other.y)

    def __neg__(self):
        return UNil3Element(-self.x, self.y)

    def __sub__(self, other):
        return self + (-other)

    def doubled(self):
        return UNil3Element(self.x.doubled(), _ZERO_F2)

    def is_zero(self):
        return self.x.is_zero() and self.y.is_zero()

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        if not self.x.is_zero():
            parts.append(f"j1[{self.x}]")
        if not self.y.is_zero():
            parts.append(f"j2[{self.y}]")
        return " + ".join(parts)

    __repr__ = __str__

    def to_json_dict(self):
        return {"x": str(self.x.rep), "y": str(self.y)}

    @classmethod
    def from_json_dict(cls, data):
        return cls(versch_reduce(parse_poly(data["x"], "Z4")), parse_poly(data["y"], "F2"))


def j1(p):
    """The class with x-coordinate [p]; accepts Z or Z4 coefficients."""
    if p.ring == "Z":
        p = p.map_ring("Z4")
    return UNil3Element(versch_reduce(p), _ZERO_F2)


def j2(p):
    """The class with y-coordinate p; accepts Z or F2 coefficients."""
    if p.ring == "Z":
        p = p.map_ring("F2")
    return UNil3Element(VerschQuotientClass(_ZERO_Z4), p)


def unil_add(lhs, rhs):
    if type(lhs) is not type(rhs):
        raise TypeError("operands lie in different UNil groups")
    return lhs + rhs


def pi_map(x):
    """Reduce each coefficient of the canonical representative mod 2.

    Well defined on classes: the relations 2(t^{2k} - t^k) vanish mod 2.
    """
    return x.rep.map_ring("F2")


def switch_unil3(e):
    return UNil3Element(e.x, pi_map(e.x) + e.y)


def switch_unil2(e):
    return e


def B_coords(e):
    return (pi_map(e.x), e.y)


def element_order(e):
    """Additive order; always 1, 2, or 4."""
    if e.is_zero():
        return 1
    d = e + e
    if d.is_zero():
        return 2
    if not (d + d).is_zero():
        raise RuntimeError(f"element {e} has additive order above 4")
    return 4


def is_multiple_of_two(e):
    """Whether e = 2f for some f.

    The relations 2(t^{2k} - t^k) never change a coefficient's parity,
    so an x-class is a double exactly when pi(x) = 0; the y-coordinate
    of any double is zero.
    """
    if isinstance(e, UNil2Element):
        return e.is_zero()
    return e.y.is_zero() and pi_map(e.x).is_zero()


def _shift_down(p):
    return Polynomial(p.ring, p.coeffs[1:])


def _resolve_shape(p, g):
    """Rewrite [N_{p,g}] toward a j1 generator shape.

    The class only depends on p mod 4 and g mod 2, and t-factors move
    between the slots at the cost of one switch: sw[N_{tp,g}] = [N_{p,tg}].
    Returns (sw_parity, P over Z4, G over F2) where either G = 1 and
    P(0) = 0 (the j1 shape) or (P, G) is a terminal unresolved symbol.
    """
    P = p.map_ring("Z4") if p.ring != "Z4" else p
    G = g.map_ring("F2") if g.ring != "F2" else g
    n = 0
    while not G.is_zero() and G.coefficient(0) == 0:
        G = _shift_down(G)
        P = P.times_t()
        n += 1
    if G.is_zero():
        # with the second slot zero the switch costs nothing: pi of the
        # x-coordinate is [p*g] = 0, so all [N_{t^k p, 0}] agree
        while not P.is_zero() and P.coefficient(0) == 0:
            P = _shift_down(P)
            n += 1
    return n % 2, P, G


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
        if G == Polynomial.one("F2") and P.coefficient(0) == 0:
            e = j1(P)
            if parity:
                e = switch_unil3(e)
            for _ in range(abs(coeff)):
                total = total + (e if coeff > 0 else -e)
            continue
        if P.is_zero() and G.is_zero():
            continue  # N_{0,0} is hyperbolic, class zero
        key = (P.coeffs, G.coeffs)
        residue[key] = residue.get(key, 0) + coeff
        if parity and coeff % 2:
            # sw(A) - A = (0, pi(x_A)) and pi of the x-coordinate of
            # [N_{P,G}] is [P*G]; only parity survives in the F2 slot
            total = total + j2(P.map_ring("F2") * G)
    bad = [k for k, c in residue.items() if c]
    if bad:
        P, G = bad[0]
        raise ValueError(
            "shape outside the generated dictionary: "
            f"N_{{{Polynomial('Z4', P)},{Polynomial('F2', G)}}} does not cancel"
        )
    return total


def n_class_of_generator(p, g):
    """UNil_3 coordinates of the linking-form generator [N_{p,g}]."""
    if (p.coefficient(0) == 0) == (g.coefficient(0) == 0):
        raise ValueError("exactly one of p(0) = 0, g(0) = 0 is required")
    return n_class_combination([(1, p, g)])


@dataclass(frozen=True)
class TruncatedEnumeration:
    elements: tuple
    orbit_reps: tuple
    total: int
    fixed: int
    orbits: int


def orbit_count(group, degree_cutoff):
    """The number of switch-orbits enumerate_truncated(group, degree_cutoff)
    lists, in closed form.

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


def _element_rows(group, d):
    """Yield (elements, orbit representatives, fixed count) for the canonical
    elements supported on exponents <= d, one row per x-coordinate on UNil_3
    (one row in all on UNil_2), in lexicographic coefficient order.

    The elements are built in ``product`` order over the coefficients,
    which is already the lexicographic order.  On UNil_3 the orbit of
    (x, y) is {(x, y), (x, y + pi(x))}: a fixed point when pi(x) = 0, and
    otherwise a pair whose two y's first differ at the lowest exponent of
    pi(x), so the lex-least member is the one with a 0 there.
    """
    if d < 0:
        raise ValueError("degree cutoff must be >= 0")
    if group == "UNil2":
        odd = [k for k in range(1, d + 1) if k % 2]
        elements = []
        for mask in product((0, 1), repeat=len(odd)):
            cs = [0] * (d + 1)
            for k, c in zip(odd, mask):
                cs[k] = c
            elements.append(UNil2Element(IdemQuotientClass(Polynomial("F2", tuple(cs)))))
        # the switch is the identity on UNil_2
        yield elements, elements, len(elements)
    elif group == "UNil3":
        ranges = [range(2) if k % 2 == 0 else range(4) for k in range(1, d + 1)]
        ys = [Polynomial("F2", (0,) + ymask) for ymask in product((0, 1), repeat=d)]
        for xcs in product(*ranges):
            x = VerschQuotientClass(Polynomial("Z4", (0,) + xcs))
            row = [UNil3Element(x, y) for y in ys]
            # lowest exponent k >= 1 where pi(x) has a 1
            low = next((k for k, c in enumerate(xcs, 1) if c % 2), None)
            if low is None:
                yield row, row, len(row)
            else:
                yield row, [e for e, y in zip(row, ys) if not y.coefficient(low)], 0
    else:
        raise ValueError("group must be 'UNil2' or 'UNil3'")


def orbit_reps(group, degree_cutoff):
    """Yield the switch-orbit representatives enumerate_truncated lists, in
    its order, holding one row of elements at a time."""
    for _, reps, _ in _element_rows(group, degree_cutoff):
        yield from reps


def enumerate_truncated(group, degree_cutoff):
    """All canonical elements supported on exponents <= degree_cutoff.

    Returns the elements in lexicographic coefficient order, the
    switch-orbit representatives (the lex-least member of each orbit),
    and the total / switch-fixed / orbit counts.  The orbit count is
    checked against the Burnside value (total + fixed) / 2.
    """
    elements = []
    reps = []
    fixed = 0
    for row, row_reps, row_fixed in _element_rows(group, degree_cutoff):
        elements += row
        reps += row_reps
        fixed += row_fixed
    orbits = len(reps)
    if 2 * orbits != len(elements) + fixed:
        raise RuntimeError(
            f"Burnside check failed: {orbits} orbits, {len(elements)} elements, {fixed} fixed"
        )
    return TruncatedEnumeration(tuple(elements), tuple(reps), len(elements), fixed, orbits)


def compact_literal(e):
    """Element literal with compact polynomial rendering, e.g. 'j1[t] + j2[t^2]'."""
    from unilcalc.polynomials import compact_str

    if e.is_zero():
        return "0"
    parts = []
    if not e.x.is_zero():
        parts.append(f"j1[{compact_str(e.x.rep)}]")
    if not e.y.is_zero():
        parts.append(f"j2[{compact_str(e.y)}]")
    return " + ".join(parts)


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
        if tag == "j1":
            total = total + j1(parse_poly(inner, "Z4"))
        else:
            total = total + j2(parse_poly(inner, "F2"))
        i = skip_ws(close + 1)
        first = False
    return total
