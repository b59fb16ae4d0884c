"""The resolution sweep of verify-paper, built from per-polynomial halves,
still checks every instance and still locates a failure."""

from unilcalc import fixtures, forms
from unilcalc.polynomials import Polynomial, render


def test_resolution_sweep_checks_every_instance(monkeypatch):
    # start, mid and end of each chain are built, and so checked, once each,
    # although each half is built once per polynomial; verify_chain builds
    # nothing more for a passing chain, since every state it compares is
    # then mid or end itself.  A compared state that is not the record it is
    # compared with must have been built, and so checked, in this sweep.
    # Degree 1 has 4 x 4 chains
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
    assert len(built) == len(checked) == 3 * 16
    assert len(compared) == 2 * 16
    built_ids = {id(r) for r in built}
    assert all(state is record or id(state) in built_ids for state, record in compared)
    # the records compared with are the mids and ends built for the chains
    assert all(id(record) in built_ids for _, record in compared)


def test_resolution_sweep_pairs_the_halves(monkeypatch):
    # each label's chain is resolution_switch_chain of that very (p, g)
    chains = []
    verify_chain = forms.verify_chain

    def recording_verify_chain(*chain):
        chains.append(chain)
        return verify_chain(*chain)

    monkeypatch.setattr(fixtures, "verify_chain", recording_verify_chain)
    labels = [label for label, _, _ in fixtures._fx_resolution_chain(1, False)]
    polys = list(fixtures._bit_polys(1))
    expected = {
        f"p={render(p, compact=True)} g={render(g, compact=True)}": forms.resolution_switch_chain(p, g)
        for p in polys
        for g in polys
    }
    assert dict(zip(labels, chains)) == expected


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
