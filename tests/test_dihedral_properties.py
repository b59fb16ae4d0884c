"""Property tests in Z[D_inf]: x - y agrees with x + (-y) and is undone by
adding y back."""

import pytest

from unilcalc.dihedral import DihedralElement

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# ((k, eps), c) pairs; repeated group elements are summed, and cancelling
# ones give the zero coefficients the subtraction must drop
elements = st.lists(
    st.tuples(st.tuples(st.integers(-3, 3), st.integers(0, 1)), st.integers(-3, 3)),
    max_size=6,
).map(DihedralElement)


@hypothesis.given(elements, elements)
def test_difference_is_sum_with_negation(x, y):
    assert x - y == x + (-y)
    assert (x - y) + y == x
    assert (x - x).is_zero()

