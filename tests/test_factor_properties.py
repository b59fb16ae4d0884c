"""Property tests of funcfield.factor at degrees up to 200."""

import pytest

from unilcalc.funcfield import factor, gf2_pow, is_irreducible
from unilcalc.kernels import gf2_deg, gf2_mul

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _product(pieces):
    f = 1
    for g, m in pieces:
        f = gf2_mul(f, gf2_pow(g, m))
    return f


# a raw polynomial of degree <= 200, or a product of up to three
# polynomials of degree <= 16 raised to powers <= 4 (degree <= 192), which
# forces repeated factors
POLYS = st.one_of(
    st.integers(1, (1 << 201) - 1),
    st.lists(st.tuples(st.integers(2, (1 << 17) - 1), st.integers(1, 4)), min_size=1, max_size=3).map(
        _product
    ),
)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(POLYS)
def test_factor_properties(f):
    assert gf2_deg(f) <= 200
    out = factor(f)
    assert list(out) == sorted(out)
    assert len({pi for pi, _ in out}) == len(out)
    for pi, m in out:
        assert is_irreducible(pi) and m >= 1
    assert _product(out) == f
