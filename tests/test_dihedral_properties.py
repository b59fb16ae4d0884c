"""Property tests in Z[D_inf]: x - y, computed in one pass, agrees with
x + (-y) and is undone by adding y back, and x.between(u, v), one
relabelling of x's keys, agrees with u * x * v and with the affine-map
oracle for units u and v."""

import pytest

from tests.helpers_oracles import oracle_mul, ring_oracle
from unilcalc.dihedral import DihedralElement

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# ((k, eps), c) pairs; repeated group elements are summed, and cancelling
# ones give the zero coefficients the one-pass subtraction must drop
elements = st.lists(
    st.tuples(st.tuples(st.integers(-3, 3), st.integers(0, 1)), st.integers(-3, 3)),
    max_size=6,
).map(DihedralElement)


@hypothesis.given(elements, elements)
def test_difference_is_sum_with_negation(x, y):
    assert x - y == x + (-y)
    assert (x - y) + y == x
    assert (x - x).is_zero()


# units +-t^k a^eps
units = st.builds(
    DihedralElement.monomial, st.integers(-4, 4), st.integers(0, 1), st.sampled_from((1, -1))
)


@hypothesis.given(units, elements, units)
@hypothesis.example(-DihedralElement.monomial(1, 1), DihedralElement.zero(), DihedralElement.monomial(-2, 0))
def test_between_is_the_product_with_units(u, x, v):
    got = x.between(u, v)
    assert got == u * x * v
    assert ring_oracle(got) == oracle_mul(oracle_mul(ring_oracle(u), ring_oracle(x)), ring_oracle(v))

