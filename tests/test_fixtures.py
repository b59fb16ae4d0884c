"""The resolution sweep of verify-paper certifies every instance from the
chains of its halves, chain(p, 0) and chain(0, g), and still locates a
failure with the message of the instance's full chain."""

from unilcalc import fixtures, forms
from unilcalc.polynomials import Polynomial, render


def _label(p, g):
    return f"p={render(p, compact=True)} g={render(g, compact=True)}"


def test_resolution_sweep_checks_every_instance(monkeypatch):
    # degree 1 has 4 x 4 instances and 2 x 4 - 1 half chains, chain(0, 0)
    # being both halves.  Start, mid and end of each half chain are built,
    # and so checked, once each;
    # verify_chain builds nothing more for a passing chain, since every
    # state it compares is then mid or end itself.  A compared state that
    # is not the record it is compared with must have been built, and so
    # checked, in this sweep
    built, checked, compared = [], [], []
    post_init = forms.QuadResolution.__post_init__
    identity = forms.resolution_identity_holds
    res_diff = forms._res_diff

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def counting_identity(*args):
        checked.append(args)
        return identity(*args)

    def recording_res_diff(state, record):
        compared.append((state, record))
        return res_diff(state, record)

    monkeypatch.setattr(forms.QuadResolution, "__post_init__", counting_post_init)
    monkeypatch.setattr(forms, "resolution_identity_holds", counting_identity)
    monkeypatch.setattr(forms, "_res_diff", recording_res_diff)
    results = list(fixtures._fx_resolution_chain(1, False))
    assert len(results) == 16 and all(ok for _, ok, _ in results)
    assert len(built) == len(checked) == 3 * 7
    assert len(compared) == 2 * 7
    built_ids = {id(r) for r in built}
    assert all(state is record or id(state) in built_ids for state, record in compared)
    # the records compared with are the mids and ends built for the chains
    assert all(id(record) in built_ids for _, record in compared)


def test_resolution_sweep_pairs_the_halves(monkeypatch):
    # the chains run are chain(0, g) for every g, then chain(p, 0) for
    # every p other than 0, each resolution_switch_chain of that very pair,
    # and every pair (p, g) is reported in sweep order
    chains = []
    verify_chain = forms.verify_chain

    def recording_verify_chain(*chain):
        chains.append(chain)
        return verify_chain(*chain)

    monkeypatch.setattr(fixtures, "verify_chain", recording_verify_chain)
    results = list(fixtures._fx_resolution_chain(1, False))
    polys = list(fixtures._bit_polys(1))
    zero = polys[0]
    assert chains == [forms.resolution_switch_chain(zero, g) for g in polys] + [
        forms.resolution_switch_chain(p, zero) for p in polys[1:]
    ]
    assert results == [(_label(p, g), True, None) for p in polys for g in polys]


def test_failure_in_a_shared_half_is_located(monkeypatch):
    # negate the start entry tp*a of the p half of p = t; the negated
    # entry, with psi1 = -psi0, is still a resolution, so the chain fails
    # at the comparison with mid, and at the first g
    t = Polynomial.t()
    p_half = forms.resolution_chain_p_half

    def corrupted_p_half(p):
        (x, neg_x), mid, end = p_half(p)
        if p == t:
            x, neg_x = neg_x, x
        return (x, neg_x), mid, end

    monkeypatch.setattr(fixtures, "resolution_chain_p_half", corrupted_p_half)
    results = list(fixtures._fx_resolution_chain(2, False))
    # p = 0 and p = 1 pass for all 8 g, then p = t fails at g = 0
    assert [ok for _, ok, _ in results] == [True] * 16 + [False]
    label, _, message = results[-1]
    assert label == "p=t g=0"
    # bar(b) * (-t^2*a) * b = -a against b*t = a
    assert message == "step 2 assert_equal: psi0 entry (0,0): -1*t^0*a vs 1*t^0*a"


def test_failure_in_a_g_half_is_located(monkeypatch):
    # negate the start entry 2tg*a of the g half of g = t; as above it is
    # still a resolution, so the chain fails at the comparison with mid,
    # first for p = 0
    t = Polynomial.t()
    g_half = forms.resolution_chain_g_half

    def corrupted_g_half(g):
        (x, neg_x), mid, end = g_half(g)
        if g == t:
            x, neg_x = neg_x, x
        return (x, neg_x), mid, end

    monkeypatch.setattr(fixtures, "resolution_chain_g_half", corrupted_g_half)
    results = list(fixtures._fx_resolution_chain(2, False))
    # p = 0 passes for g = 0 and g = 1, then fails at g = t
    assert [ok for _, ok, _ in results] == [True, True, False]
    label, _, message = results[-1]
    assert label == "p=0 g=t"
    # a * (-2t*a) * a = -2t^-1*a against 2a*t = 2t^-1*a
    assert message == "step 2 assert_equal: psi0 entry (1,1): -2*t^-1*a vs 2*t^-1*a"
    full_chain = forms.assemble_resolution_chain(
        forms.resolution_chain_p_half(Polynomial.zero()), corrupted_g_half(t)
    )
    assert message == forms.verify_chain(*full_chain)
