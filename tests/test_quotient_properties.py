"""Property tests of the bitmask quotient reductions against the dense
reference rewrites in helpers_oracles, at degrees up to 300."""

import pytest

from tests.helpers_oracles import dense_idem_reduce, dense_versch_reduce
from unilcalc.polynomials import Polynomial, idem_reduce, versch_reduce

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
    assert rep == dense_idem_reduce(Polynomial.from_bits(a)).to_bits()
    # canonical representatives form a subgroup, so sums need no reduction
    assert rep ^ idem_reduce(b) == idem_reduce(a ^ b)


@SETTINGS
@hypothesis.given(Z4_POLYS)
def test_versch_reduce(pair):
    assert versch_reduce(*pair) == dense_versch_reduce(Polynomial.from_z4pair(*pair)).to_z4pair()
