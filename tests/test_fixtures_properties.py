"""Property tests of the lemma behind the resolution sweep of verify-paper
(fixtures._fx_resolution_chain): every state of the resolution chain for
(p, g) is state(p, 0) + state(0, g) - state(0, 0), entry by entry, and for
p = sum c_k t^k and g = sum e_k t^k it is state(0, 0)
+ sum c_k (state(t^k, 0) - state(0, 0)) + sum e_k (state(0, t^k) - state(0, 0)),
the combination of the monomial chains the sweep runs."""

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


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(polys, polys)
def test_chain_states_are_the_monomial_combination(p, g):
    zero = Polynomial.zero()
    base = chain_states(zero, zero)
    # (coefficient, states of the monomial chain) for each term of p, then of g
    terms = [(c, chain_states(Polynomial((0,) * k + (1,)), zero)) for k, c in enumerate(p.coeffs)]
    terms += [(e, chain_states(zero, Polynomial((0,) * k + (1,)))) for k, e in enumerate(g.coeffs)]
    for s, state in enumerate(chain_states(p, g)):
        for name in ("d", "psi0", "psi1"):
            M, M0 = getattr(state, name), getattr(base[s], name)
            for i in range(state.rank):
                for j in range(state.rank):
                    expected = M0[i][j]
                    for c, states in terms:
                        expected = expected + (getattr(states[s], name)[i][j] - M0[i][j]) * c
                    assert M[i][j] == expected, (s, name, i, j)
