"""Property tests of the bitmask quotient reductions against the dense
reference rewrites in helpers_oracles, at degrees up to 300, and of the
text that polynomials reads into and prints from the bitmasks."""

import pytest

from tests.helpers_oracles import (
    dense_idem_reduce,
    dense_versch_reduce,
    f2_bits,
    f2_coeffs,
    parse_poly,
    z4_coeffs,
    z4_pair,
)
from unilcalc.polynomials import (
    Polynomial,
    idem_reduce,
    parse_f2,
    parse_z4,
    render,
    versch_reduce,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

F2_POLYS = st.integers(0, (1 << 301) - 1)
# a Z4 polynomial of degree <= 300 with zero constant term, as (lo, hi)
Z4_POLYS = st.tuples(F2_POLYS, F2_POLYS).map(lambda p: (p[0] & ~1, p[1] & ~1))
SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)


@SETTINGS
@hypothesis.given(F2_POLYS, F2_POLYS)
def test_idem_reduce(a, b):
    rep = idem_reduce(a)
    assert rep == dense_idem_reduce(f2_coeffs(a))
    # canonical representatives form a subgroup, so sums need no reduction
    assert rep ^ idem_reduce(b) == idem_reduce(a ^ b)


@SETTINGS
@hypothesis.given(Z4_POLYS)
def test_versch_reduce(pair):
    assert versch_reduce(*pair) == dense_versch_reduce(z4_coeffs(pair))


# bitmasks of degree <= 40, 0 included; the Z4 pairs keep their constant term
SMALL_F2 = st.integers(0, (1 << 41) - 1)
SMALL_Z4 = st.tuples(SMALL_F2, SMALL_F2)


@SETTINGS
@hypothesis.given(SMALL_F2, SMALL_Z4, st.booleans())
@hypothesis.example(0, (0, 0), False)
@hypothesis.example(0, (0, 0), True)
def test_parsers_invert_render(bits, pair, compact):
    assert parse_f2(render(bits, compact)) == bits
    assert parse_z4(render(pair, compact)) == pair


def _coefficient_text(draw, value):
    """An integer coefficient as text: plain or as a fraction a/b."""
    den = draw(st.integers(1, 4))
    return f"{value * den}/{den}" if draw(st.booleans()) else str(value)


@st.composite
def term_texts(draw):
    """Random polynomial text: signed terms in every spelling the grammar
    has, with a/b integer coefficients and repeated exponents, and the
    integer coefficients it spells, cs[k] of t^k."""
    term = st.tuples(st.integers(-9, 9), st.integers(0, 12), st.integers(0, 3))
    terms = draw(st.lists(term, min_size=1, max_size=8))
    cs = [0] * 13
    text = ""
    for c, e, shape in terms:
        cs[e] += c
        sign = "-" if c < 0 else "+"
        if shape == 0 or c == 0:
            body = f"{_coefficient_text(draw, abs(c))}*t^{e}"
        elif shape == 1 and abs(c) == 1:
            body = "t" if e == 1 else f"t^{e}"
        elif shape == 2 and e == 0:
            body = _coefficient_text(draw, abs(c))
        else:
            body = f"{_coefficient_text(draw, abs(c))}*t" + ("" if e == 1 else f"^{e}")
        text += f" {sign} {body}" if text else (f"-{body}" if c < 0 else body)
    return text, cs


@SETTINGS
@hypothesis.given(term_texts())
def test_parsers_reduce_the_z_parse(case):
    text, cs = case
    z = parse_poly(text)
    assert z == Polynomial(tuple(cs))
    assert parse_f2(text) == f2_bits(z.coeffs)
    assert parse_z4(text) == z4_pair(z.coeffs)
