"""Property tests of the F2[t] product against the shift-and-add oracle in
helpers_oracles, on operands of up to 4,096 bits."""

import pytest

from tests.helpers_oracles import f2_mul
from unilcalc.kernels import gf2_mul

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# the length is drawn first, so short, long and lopsided pairs all occur
F2_POLYS = st.integers(0, 4096).flatmap(lambda n: st.integers(0, (1 << n) - 1))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(F2_POLYS, F2_POLYS)
def test_gf2_mul(a, b):
    assert gf2_mul(a, b) == f2_mul(a, b)
    assert gf2_mul(b, a) == f2_mul(a, b)
