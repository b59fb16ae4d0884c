"""The resolution sweep of verify-paper certifies every instance (p, g)
from the monomial chains chain(0, 0), chain(0, t^k) and chain(t^k, 0),
and still locates a failure with the message of the instance's full
chain.  The Burnside fixture checks unil.orbit_reps and orbit_count
against brute-force orbits, and fails at the first cutoff where either is
wrong."""

import pytest

from tests.helpers_oracles import switch_orbit_elements
from unilcalc import fixtures, forms, unil
from unilcalc.polynomials import Polynomial, render


def _label(p, g):
    return f"p={render(p, compact=True)} g={render(g, compact=True)}"


def test_resolution_sweep_checks_every_instance():
    # degree 1 has 4 x 4 instances, and every one passes
    results = list(fixtures._fx_resolution_chain(1, False))
    assert len(results) == 16 and all(ok for _, ok, _ in results)


def test_resolution_sweep_pairs_the_halves(monkeypatch):
    # the chains run are chain(0, 0), then chain(0, t^k) and then
    # chain(t^k, 0) for k <= n = min(degree, 4), 2n + 3 of them (11 at
    # degree 4), each resolution_switch_chain of that very pair, and every
    # pair (p, g) is reported in sweep order
    chains = []
    verify_chain = forms.verify_chain

    def recording_verify_chain(*chain):
        chains.append(chain)
        return verify_chain(*chain)

    monkeypatch.setattr(fixtures, "verify_chain", recording_verify_chain)
    zero = Polynomial.zero()
    for degree in (0, 1, 4, 12):
        chains.clear()
        results = list(fixtures._fx_resolution_chain(degree, False))
        n = min(degree, 4)
        monomials = [Polynomial((0,) * k + (1,)) for k in range(n + 1)]
        assert len(chains) == 2 * n + 3
        assert chains == (
            [forms.resolution_switch_chain(zero, zero)]
            + [forms.resolution_switch_chain(zero, m) for m in monomials]
            + [forms.resolution_switch_chain(m, zero) for m in monomials]
        )
        polys = list(fixtures._bit_polys(n))
        assert results == [(_label(p, g), True, None) for p in polys for g in polys]


def _corrupting(p0, g0, i):
    """resolution_switch_chain, except that psi0[i][i] and psi1[i][i] of
    the start of chain(p0, g0) are negated.  psi1 = -psi0 there, so the
    start is still a resolution, but its base change is not mid."""
    chain = forms.resolution_switch_chain

    def corrupted_chain(p, g):
        start, P, mid, end = chain(p, g)
        if (p, g) == (p0, g0):
            psi0, psi1 = (
                tuple(
                    tuple(-x if r == s == i else x for s, x in enumerate(row))
                    for r, row in enumerate(M)
                )
                for M in (start.psi0, start.psi1)
            )
            start = forms.QuadResolution(start.d, psi0, psi1, start.epsilon)
        return start, P, mid, end

    return corrupted_chain


def test_failure_in_a_shared_half_is_located(monkeypatch):
    # negate the start entry tp*a of chain(t, 0), which every pair (t, g)
    # relies on; the chain fails at the comparison with mid, and at the
    # first g
    t = Polynomial.t()
    monkeypatch.setattr(fixtures, "resolution_switch_chain", _corrupting(t, Polynomial.zero(), 0))
    results = list(fixtures._fx_resolution_chain(2, False))
    # p = 0 and p = 1 pass for all 8 g, then p = t fails at g = 0
    assert [ok for _, ok, _ in results] == [True] * 16 + [False]
    label, _, message = results[-1]
    assert label == "p=t g=0"
    # bar(b) * (-t^2*a) * b = -a against b*t = a
    assert message == "step 2 assert_equal: psi0 entry (0,0): -1*t^0*a vs 1*t^0*a"


def test_failure_in_a_g_half_is_located(monkeypatch):
    # negate the start entry 2tg*a of chain(0, t); as above the chain fails
    # at the comparison with mid, first for p = 0
    t = Polynomial.t()
    corrupted_chain = _corrupting(Polynomial.zero(), t, 1)
    monkeypatch.setattr(fixtures, "resolution_switch_chain", corrupted_chain)
    results = list(fixtures._fx_resolution_chain(2, False))
    # p = 0 passes for g = 0 and g = 1, then fails at g = t
    assert [ok for _, ok, _ in results] == [True, True, False]
    label, _, message = results[-1]
    assert label == "p=0 g=t"
    # a * (-2t*a) * a = -2t^-1*a against 2a*t = 2t^-1*a
    assert message == "step 2 assert_equal: psi0 entry (1,1): -2*t^-1*a vs 2*t^-1*a"
    assert message == forms.verify_chain(*corrupted_chain(Polynomial.zero(), t))


BURNSIDE_LABELS = [f"{group} d={d}" for group in ("UNil2", "UNil3") for d in range(5)]


@pytest.mark.parametrize("group", ["UNil2", "UNil3"])
@pytest.mark.parametrize("d", range(5))
def test_canonical_elements_are_the_oracles(group, d):
    elements = fixtures._canonical_elements(group, d)
    assert len(elements) == len(set(elements))
    assert set(elements) == set(switch_orbit_elements(group, d)[0])


def _assert_fails_at(label, message):
    results = list(fixtures._fx_burnside(4, False))
    i = BURNSIDE_LABELS.index(label)
    assert results[:i] == [(passed, True, None) for passed in BURNSIDE_LABELS[:i]]
    assert results[i:] == [(label, False, message)]


def test_burnside_catches_a_dropped_representative(monkeypatch):
    orbit_reps = unil.orbit_reps

    def dropping(group, d):
        reps = list(orbit_reps(group, d))
        return reps[:-1] if (group, d) == ("UNil2", 3) else reps

    monkeypatch.setattr(fixtures, "orbit_reps", dropping)
    _assert_fails_at(
        "UNil2 d=3",
        "orbit_reps gives 3 representatives of 3 orbits; orbit count 4 vs brute force 4",
    )


def test_burnside_catches_two_representatives_of_one_orbit(monkeypatch):
    orbit_reps = unil.orbit_reps

    def doubling(group, d):
        reps = list(orbit_reps(group, d))
        if (group, d) == ("UNil3", 2):
            # the last representative gives way to the switch partner of
            # the first one the switch moves, so the count is kept
            x, y = next((x, y) for x, y in reps if x[0])
            reps[-1] = (x, y ^ x[0])
        return reps

    monkeypatch.setattr(fixtures, "orbit_reps", doubling)
    _assert_fails_at(
        "UNil3 d=2",
        "orbit_reps gives 20 representatives of 19 orbits; orbit count 20 vs brute force 20",
    )


def test_burnside_catches_a_wrong_orbit_count(monkeypatch):
    orbit_count = unil.orbit_count

    def off_by_one(group, d):
        return orbit_count(group, d) + ((group, d) == ("UNil3", 4))

    monkeypatch.setattr(fixtures, "orbit_count", off_by_one)
    _assert_fails_at(
        "UNil3 d=4",
        "orbit_reps gives 544 representatives of 544 orbits; orbit count 545 vs brute force 544",
    )
