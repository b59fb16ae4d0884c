"""Property test of the lemma behind the resolution sweep of verify-paper
(fixtures._fx_resolution_chain): every state of the resolution chain for
(p, g) is state(p, 0) + state(0, g) - state(0, 0), entry by entry."""

import pytest

from unilcalc.forms import base_change, resolution_switch_chain, switch_form
from unilcalc.polynomials import Polynomial

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# a polynomial over Z of degree at most 6
polys = st.lists(st.integers(-9, 9), max_size=7).map(Polynomial)


def chain_states(p, g):
    """start, the base-changed state, mid, the switched state and end of
    the resolution chain for (p, g)."""
    start, P, mid, end = resolution_switch_chain(p, g)
    changed = base_change(start, P)
    return start, changed, mid, switch_form(changed), end


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(polys, polys)
def test_chain_states_are_the_half_combination(p, g):
    zero = Polynomial.zero()
    halves = zip(chain_states(p, zero), chain_states(zero, g), chain_states(zero, zero))
    for state, (p_state, g_state, zero_state) in zip(chain_states(p, g), halves):
        for name in ("d", "psi0", "psi1"):
            M, Mp, Mg, M0 = (getattr(x, name) for x in (state, p_state, g_state, zero_state))
            for i in range(state.rank):
                for j in range(state.rank):
                    assert M[i][j] == Mp[i][j] + Mg[i][j] - M0[i][j], (name, i, j)
