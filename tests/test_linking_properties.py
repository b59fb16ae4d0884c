"""Property tests of the lagrangian search: the slot-by-slot q of its row
filter, and the Arf obstruction to a witness; of the Arf class itself; and
of the determinant."""

import random

import pytest

from tests.helpers_oracles import (
    arf_by_eval_bq,
    bareiss_det,
    direct_sum,
    elementary_base_change,
    even_form_with_known_arf,
)
from tests.test_f2linalg import rand_unimodular
from tests.test_linking import rand_form
from unilcalc import lagrangian
from unilcalc.f2linalg import det, mat_mul
from unilcalc.kernels import z4_neg
from unilcalc.lagrangian import find_lagrangian
from unilcalc.linking import LinkingForm, arf_even, eval_bq

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 5),
    even=st.booleans(),
    bound=st.integers(0, 3),
)
def test_slot_by_slot_q_equals_eval_bq(seed, k, even, bound):
    """The filter keeps a row exactly when its slot-by-slot q is 0.  Append
    a rank-2 block with q(e) = -V, V = eval_bq's q(x): q(x, 1, 0) is then
    q(x) - V, so the filter keeps (x, 1, 0) exactly when its q(x) is V."""
    rng = random.Random(seed)
    if even and k % 2:
        k += 1
    f = rand_form(rng, k, deg=2, even=even)
    x = tuple(rng.randrange(1 << (bound + 1)) for _ in range(k))
    lo, hi = eval_bq(f, x, x)[1]
    g = direct_sum([f, LinkingForm(2, ((lo, 1), (1, 0)), (z4_neg(lo, hi), (0, 0)))])
    row = x + (1, 0)
    pivot = next(c for c, v in enumerate(row) if v)
    spans = [(v,) for v in row]
    tables = lagrangian._slot_tables(g, bound)
    assert lagrangian._q_zero_rows(tables, pivot, row[pivot], spans) == [row]
    # and a different V is not matched
    g2 = direct_sum([f, LinkingForm(2, ((lo, 1), (1, 0)), (z4_neg(lo, hi ^ 1), (0, 0)))])
    assert lagrangian._q_zero_rows(lagrangian._slot_tables(g2, bound), pivot, row[pivot], spans) == []


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from((2, 4)), bound=st.integers(0, 2))
def test_no_witness_with_a_nonzero_arf_class(seed, k, bound):
    """A lagrangian makes a form 0 in the Witt group, so a form with a
    nonzero Arf class has none; witt-check skips its search on this."""
    f = rand_form(random.Random(seed), k, deg=2, even=True)
    assert find_lagrangian(f, bound) is None or arf_even(f) == 0


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from((2, 4, 6)),
    steps=st.integers(1, 12),
    degree=st.integers(0, 3),
)
def test_arf_class_is_invariant_under_base_change(seed, k, steps, degree):
    rng = random.Random(seed)
    f = rand_form(rng, k, deg=2, even=True)
    b, h = elementary_base_change(f.b_num, [hi for _, hi in f.q_num], steps, degree, rng)
    assert arf_even(LinkingForm(k, b, tuple((0, x) for x in h))) == arf_even(f)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 7),
    zeros=st.floats(0, 0.8),
    steps=st.integers(0, 14),
    degree=st.integers(0, 3),
)
def test_det_is_invariant_under_unimodular_base_change(seed, n, zeros, steps, degree):
    rng = random.Random(seed)
    M = tuple(tuple(0 if rng.random() < zeros else rng.randrange(16) for _ in range(n)) for _ in range(n))
    U = rand_unimodular(rng, n, steps, degree)
    V = rand_unimodular(rng, n, steps, degree)
    assert det(mat_mul(mat_mul(U, M), V)) == det(M) == bareiss_det(M)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    blocks=st.integers(1, 6),
    steps=st.integers(0, 40),
    degree=st.integers(0, 3),
)
def test_arf_class_of_a_known_form_after_base_change(seed, blocks, steps, degree):
    """Hyperbolic blocks with q = (2a_i, 2b_i), moved by random unimodular
    base changes: det stays 1 and the class stays that of sum a_i b_i,
    carried through the moves as by eval_bq on the basis coordinates."""
    rng = random.Random(seed)
    qvals = [(rng.randrange(16), rng.randrange(16)) for _ in range(blocks)]
    b, q, arf = even_form_with_known_arf(qvals, steps, degree, rng)
    assert bareiss_det(b) == 1
    f = LinkingForm(len(q), b, q)
    assert arf_even(f) == arf == arf_by_eval_bq(f)
