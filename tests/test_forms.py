import random

import pytest

from tests.helpers_oracles import (
    base_change_by_matrices,
    dihedral_conj_t,
    dihedral_matadd,
    dihedral_matmul,
    dihedral_matneg,
    is_identity_matrix,
    monomial_inverse_by_oracle,
    resolution_identity_by_matrices,
)
from unilcalc import forms
from unilcalc.dihedral import (
    A,
    B,
    ONE as DONE,
    T as T_ELEM,
    DihedralElement,
    quad_indeterminacy_equal,
    resolution_identity_holds,
)
from unilcalc.forms import (
    QuadResolution,
    QuadraticFormTheta,
    base_change,
    generator_form,
    generator_switch_chain,
    resolution_switch_chain,
    standard_resolution,
    switch_form,
    verify_chain,
)
from unilcalc.polynomials import Polynomial

DZERO = DihedralElement.zero()
DTWO = DONE * 2
T = Polynomial.t()
ONE = Polynomial.one()


def zpoly(rng, deg=2, lo=-3, hi=3):
    return Polynomial(tuple(rng.randint(lo, hi) for _ in range(deg + 1)))


def bits_poly(rng, deg):
    return Polynomial(tuple(rng.randint(0, 1) for _ in range(deg + 1)))


def times_a(q):
    """The induced entry q(t)*a."""
    return DihedralElement.from_poly(q, a_twist=True)


def rand_dihedral_form(rng, eps):
    k = rng.randint(1, 2)

    def entry():
        d = {}
        for _ in range(rng.randint(0, 3)):
            d[(rng.randint(-2, 2), rng.randint(0, 1))] = rng.randint(-2, 2)
        return DihedralElement(d)

    theta = tuple(tuple(entry() for _ in range(k)) for _ in range(k))
    return QuadraticFormTheta(theta, eps)


def rand_monomial_P(rng, n=2):
    perm = list(range(n))
    rng.shuffle(perm)
    rows = []
    for i in range(n):
        row = [DZERO] * n
        row[perm[i]] = DihedralElement.monomial(
            rng.randint(-2, 2), rng.randint(0, 1), c=rng.choice((1, -1))
        )
        rows.append(tuple(row))
    return tuple(rows)


class TestThetaViews:
    def test_generator_views(self):
        p, g = T + ONE, T * T
        f = generator_form(p, g)
        assert f.lam() == ((DZERO, A), (-A, DZERO))
        assert f.mu() == (times_a(p), times_a(g))

    def test_lam_symmetry(self):
        # lam* = eps*lam for every form
        rng = random.Random(103)
        for _ in range(60):
            eps = rng.choice((1, -1))
            f = rand_dihedral_form(rng, eps)
            lam = f.lam()
            k = f.rank
            for i in range(k):
                for j in range(k):
                    assert lam[i][j].bar() == lam[j][i] * eps


class TestBaseChange:
    def test_identity(self):
        rng = random.Random(107)
        f = rand_dihedral_form(rng, -1)
        eye = tuple(
            tuple(DONE if i == j else DZERO for j in range(f.rank)) for i in range(f.rank)
        )
        assert base_change(f, eye) == f

    def test_round_trip_functorial(self):
        rng = random.Random(109)
        for _ in range(50):
            f = rand_dihedral_form(rng, rng.choice((1, -1)))
            if f.rank != 2:
                continue
            P = rand_monomial_P(rng)
            assert base_change(base_change(f, P), monomial_inverse_by_oracle(P)) == f

    def test_displayed_intermediate(self):
        # diag(b, a) congruence of the induced (tp, 1) generator
        rng = random.Random(113)
        for _ in range(20):
            p = bits_poly(rng, rng.randint(0, 4))
            start = generator_form(T * p, ONE)
            got = base_change(start, ((B, DZERO), (DZERO, A)))
            bp = B * DihedralElement.from_poly(p)
            assert got.lam() == ((DZERO, B), (-B, DZERO))
            assert got.mu() == (bp, A)

    def test_rejects_non_invertible(self):
        f = rand_dihedral_form(random.Random(127), -1)
        k = f.rank
        bad = tuple(tuple(A + B for _ in range(k)) for _ in range(k))
        with pytest.raises(ValueError):
            base_change(f, bad)

    def test_lam_symmetry_preserved(self):
        rng = random.Random(131)
        for _ in range(30):
            f = rand_dihedral_form(rng, rng.choice((1, -1)))
            if f.rank != 2:
                continue
            g = base_change(f, rand_monomial_P(rng))
            lam = g.lam()
            for i in range(2):
                for j in range(2):
                    assert lam[i][j].bar() == lam[j][i] * g.epsilon


class TestFormsEqual:
    def test_reflexive(self):
        f = rand_dihedral_form(random.Random(137), -1)
        assert forms._forms_diff(f, f) is None

    def test_equal_thetas_build_no_lambda(self, monkeypatch):
        # equal thetas give equal lambda and mu, so neither is built
        f = rand_dihedral_form(random.Random(141), -1)

        def no_lam(_self):
            raise AssertionError("lambda built for equal thetas")

        monkeypatch.setattr(QuadraticFormTheta, "lam", no_lam)
        assert forms._forms_diff(f, QuadraticFormTheta(f.theta, f.epsilon)) is None

    @pytest.mark.parametrize("eps", [1, -1])
    def test_theta_not_unique(self, eps):
        # [[0,a],[0,0]] and [[0,0],[eps*a,0]] present the same form
        f1 = QuadraticFormTheta(((DZERO, A), (DZERO, DZERO)), eps)
        f2 = QuadraticFormTheta(((DZERO, DZERO), (A * eps, DZERO)), eps)
        assert f1.lam() == f2.lam()
        assert forms._forms_diff(f1, f2) is None

    def test_mu_indeterminacy_minus(self):
        # eps = -1 on a-twisted entries: t^k*a is fixed by the involution,
        # so diagonal shifts by 2*v*a are invisible and odd ones are not
        p = T + ONE
        f1 = QuadraticFormTheta(((times_a(p), A), (DZERO, times_a(T))), -1)
        f2 = QuadraticFormTheta(((times_a(p + T * 2), A), (DZERO, times_a(T))), -1)
        f3 = QuadraticFormTheta(((times_a(p + T), A), (DZERO, times_a(T))), -1)
        assert forms._forms_diff(f1, f2) is None
        assert forms._forms_diff(f1, f3) is not None

    def test_mu_exact_plus(self):
        # eps = +1: v - vbar vanishes on t^k*a, so the diagonal is exact
        f1 = QuadraticFormTheta(((times_a(T),),), 1)
        f2 = QuadraticFormTheta(((times_a(T + T * 2),),), 1)
        assert forms._forms_diff(f1, f2) is not None


class TestInduceForm:
    """generator_form builds the Z[t] generator already induced."""

    def test_displayed_generator(self):
        rng = random.Random(139)
        for _ in range(20):
            p = bits_poly(rng, rng.randint(0, 4))
            f = generator_form(T * p, ONE)
            assert f.lam() == ((DZERO, A), (-A, DZERO))
            # tp*a = p(t)*b
            assert f.mu() == (DihedralElement.from_poly(p) * B, A)

    def test_zero_form(self):
        z = QuadraticFormTheta((), -1)
        assert z.rank == 0 and z.lam() == () and z.mu() == ()
        assert forms._forms_diff(z, z) is None


class TestResolutions:
    def test_invariant_enforced(self):
        d = ((DTWO, DZERO), (DZERO, DTWO))
        psi0 = ((times_a(T), A), (A, DZERO))
        with pytest.raises(ValueError):
            QuadResolution(d, psi0, psi0, 1)  # psi1 should be -psi0

    def test_standard_resolution(self):
        r = standard_resolution(T, ONE)
        assert r.d == ((DTWO, DZERO), (DZERO, DTWO))
        assert r.psi0 == ((times_a(T), A), (A, A * 2))
        assert r.psi1 == tuple(tuple(-x for x in row) for row in r.psi0)

    def test_induced_display(self):
        rng = random.Random(157)
        for _ in range(20):
            p, g = bits_poly(rng, 3), bits_poly(rng, 3)
            c = standard_resolution(T * p, g)
            pb = DihedralElement.from_poly(p) * B
            two_ga = DihedralElement.from_poly(g) * A * 2
            assert c.psi0 == ((pb, A), (A, two_ga))
            assert c.d == ((DTWO, DZERO), (DZERO, DTWO))

    def test_zero_rank(self):
        assert QuadResolution((), (), (), 1).rank == 0

    def test_invariant_random_sweep(self):
        rng = random.Random(163)
        for _ in range(40):
            p, g = zpoly(rng, 3), zpoly(rng, 3)
            standard_resolution(p, g)  # the constructor checks the identity


class TestSwitch:
    def test_displayed_matrix(self):
        rng = random.Random(167)
        for _ in range(20):
            p, g = bits_poly(rng, 3), bits_poly(rng, 3)
            two_ag = DihedralElement({(-k, 1): 2 * c for k, c in enumerate(g.coeffs) if c})
            M = (
                (B * DihedralElement.from_poly(p), B),
                (B, two_ag),  # 2a*g(t) has terms 2 t^(-k) a
            )
            f = QuadraticFormTheta(M, 1)
            got = switch_form(f).theta
            # a*p(t^-1) has terms t^k a, 2*b*g(t^-1) has terms 2 t^(1+k) a
            ap = DihedralElement({(k, 1): c for k, c in enumerate(p.coeffs) if c})
            bg = DihedralElement({(1 + k, 1): 2 * c for k, c in enumerate(g.coeffs) if c})
            assert got == ((ap, A), (A, bg))

    def test_involutive_on_resolutions(self):
        rng = random.Random(173)
        for _ in range(50):
            p, g = zpoly(rng, 2), zpoly(rng, 2)
            c = standard_resolution(p, g)
            assert switch_form(switch_form(c)) == c

    def test_integer_entries_fixed(self):
        f = QuadraticFormTheta(((DTWO,),), 1)
        assert switch_form(f) == f


class TestChains:
    def test_generator_chain_passes(self):
        assert verify_chain(*generator_switch_chain(T + ONE)) is None

    def test_generator_chain_sweep(self):
        rng = random.Random(179)
        for _ in range(12):
            p = bits_poly(rng, rng.randint(0, 3))
            assert verify_chain(*generator_switch_chain(p)) is None

    def test_resolution_chain_passes(self):
        assert verify_chain(*resolution_switch_chain(T, ONE)) is None

    def test_resolution_chain_from_halves(self):
        # the chain of the three induced complexes:
        # start (tp, g), mid with psi0 = [[b*p, b], [b, 2a*g]], end (p, tg)
        rng = random.Random(197)
        for _ in range(10):
            p, g = zpoly(rng), zpoly(rng)
            start, P, mid, end = resolution_switch_chain(p, g)
            mid_psi0 = (
                (B * DihedralElement.from_poly(p), B),
                (B, A * DTWO * DihedralElement.from_poly(g)),
            )
            assert start == standard_resolution(T * p, g)
            assert P == ((B, DZERO), (DZERO, A))
            assert mid == QuadResolution(start.d, mid_psi0, dihedral_matneg(mid_psi0), 1)
            assert end == standard_resolution(p, T * g)

    def test_resolution_chain_sweep(self):
        rng = random.Random(181)
        for _ in range(10):
            p, g = bits_poly(rng, 2), bits_poly(rng, 2)
            assert verify_chain(*resolution_switch_chain(p, g)) is None

    def test_corrupted_chain_fails_located(self):
        # flip the sign of an off-diagonal entry of mid, which changes lambda
        start, P, mid, end = generator_switch_chain(T + ONE)
        (x, y), row1 = mid.theta
        assert y == B
        bad = QuadraticFormTheta(((x, -y), row1), mid.epsilon)
        assert verify_chain(start, P, bad, end) == (
            "step 2 assert_equal: lambda entry (0,1): 1*t^1*a vs -1*t^1*a"
        )

    def test_sign_flip_on_a_type_diagonal_is_indeterminate(self):
        # for eps = -1 the diagonal is read mod {v + vbar}; negating an
        # a-type term shifts by 2*t^k*a, which is in the lattice
        start, P, mid, end = generator_switch_chain(T + ONE)
        (x, y), row1 = mid.theta
        assert x.terms[0] == ((0, 1), 1)
        shifted = DihedralElement({**dict(x.terms), (0, 1): -1})
        assert shifted != x
        flipped = QuadraticFormTheta(((shifted, y), row1), mid.epsilon)
        assert verify_chain(start, P, flipped, end) is None

    def test_wrong_end_fails_at_step_4(self):
        # both chains for p = t (and g = 1) end at parameters (t, t), not at
        # (t + 1, t) or (t, 1)
        start, P, mid, _ = generator_switch_chain(T)
        assert verify_chain(start, P, mid, generator_form(T + ONE, T)) == (
            "step 4 assert_equal: mu entry 0: 1*t^1*a vs 1*t^0*a+1*t^1*a"
        )
        start, P, mid, _ = resolution_switch_chain(T, ONE)
        assert verify_chain(start, P, mid, standard_resolution(T, ONE)) == (
            "step 4 assert_equal: psi0 entry (1,1): 2*t^1*a vs 2*t^0*a"
        )

    def test_sign_mismatch_is_located(self):
        start, P, mid, end = generator_switch_chain(T)
        other_sign = QuadraticFormTheta(mid.theta, -mid.epsilon)
        assert verify_chain(start, P, other_sign, end) == (
            "step 2 assert_equal: forms have different signs"
        )

    def test_base_change_off_mid_is_built_and_checked(self):
        # mid with psi1 + U - U^* is still a resolution, and one that
        # _res_diff does not tell from the base-changed state, though its
        # psi1 differs from the state's
        start, P, mid, end = resolution_switch_chain(T, ONE)
        U = ((T_ELEM, A), (DZERO, B * 3))
        skew = dihedral_matadd(U, dihedral_matneg(dihedral_conj_t(U)))
        shifted = QuadResolution(mid.d, mid.psi0, dihedral_matadd(mid.psi1, skew), 1)
        assert shifted.psi1 != mid.psi1
        assert verify_chain(start, P, shifted, end) is None

    def test_state_breaking_the_identity_fails_at_step_1(self):
        # a start that was never checked gives a base-changed state that
        # differs from mid and fails the identity when it is built
        start, P, mid, end = resolution_switch_chain(T, ONE)
        broken = object.__new__(QuadResolution)
        psi1 = ((start.psi1[0][0], start.psi1[0][1] + A), start.psi1[1])
        for name, value in zip(QuadResolution._fields, (start.d, start.psi0, psi1, 1)):
            object.__setattr__(broken, name, value)
        assert not resolution_identity_holds(broken.d, broken.psi0, broken.psi1)
        assert verify_chain(broken, P, mid, end) == (
            "step 1 base_change: resolution identity psi1 + psi1* = -d*psi0 fails"
        )

    def test_step_errors_are_located(self):
        start, _, mid, end = generator_switch_chain(T)
        singular = ((B, B), (B, B))
        assert verify_chain(start, singular, mid, end) == (
            "step 1 base_change: base-change matrix is not monomial"
        )


class TestEquality:
    def test_resolutions_equal_mod_psi1(self):
        r = standard_resolution(T, ONE)
        # off-diagonal psi1 noise is indeterminacy, diagonal is not
        noisy = QuadResolution(
            r.d,
            r.psi0,
            ((r.psi1[0][0], r.psi1[0][1] + DONE), (r.psi1[1][0] - DONE, r.psi1[1][1])),
            r.epsilon,
        )
        assert forms._res_diff(r, noisy) is None

    def test_resolutions_differ_on_psi0(self):
        r1 = standard_resolution(T, ONE)
        r2 = standard_resolution(T + ONE, ONE)
        assert forms._res_diff(r1, r2) is not None

    def test_failure_wording_matches_an_entry_walk(self):
        # d and psi0 are compared as whole matrices first; a failure still
        # names the first differing entry, as a walk over the entries does
        rng = random.Random(199)
        for n in (1, 2, 3):
            for _ in range(30):
                r1 = rand_resolution(rng, n)
                r2 = rand_resolution(rng, n, d=r1.d if rng.random() < 0.5 else None, eps=r1.epsilon)
                noisy = QuadResolution(r1.d, r1.psi0, dihedral_matadd(r1.psi1, rand_skew(rng, n)), r1.epsilon)
                for other in (r1, r2, noisy):
                    assert forms._res_diff(r1, other) == res_diff_by_entry_walk(r1, other)


def rand_entry(rng):
    return DihedralElement(
        [((rng.randint(-2, 2), rng.randint(0, 1)), rng.choice((1, -1, 2))) for _ in range(rng.randint(0, 3))]
    )


def rand_matrix(rng, n):
    return tuple(tuple(rand_entry(rng) for _ in range(n)) for _ in range(n))


def rand_skew(rng, n):
    """U - U^* for a random U: adding it to psi1 keeps psi1 + psi1^*."""
    U = rand_matrix(rng, n)
    return dihedral_matadd(U, dihedral_matneg(dihedral_conj_t(U)))


def rand_resolution(rng, n, d=None, eps=None):
    """A resolution of rank n over Z[D_inf]: with N = d V d^*, psi0 =
    (V + V^*) d^* and psi1 = -N + U - U^* satisfy psi1 + psi1^* = -d*psi0.
    d and the sign are random unless given."""
    d = rand_matrix(rng, n) if d is None else d
    V = rand_matrix(rng, n)
    psi0 = dihedral_matmul(dihedral_matadd(V, dihedral_conj_t(V)), dihedral_conj_t(d))
    N = dihedral_matmul(dihedral_matmul(d, V), dihedral_conj_t(d))
    psi1 = dihedral_matadd(dihedral_matneg(N), rand_skew(rng, n))
    return QuadResolution(d, psi0, psi1, rng.choice((1, -1)) if eps is None else eps)


def res_diff_by_entry_walk(lhs, rhs):
    """Reference wording for forms._res_diff: every entry of d, then of
    psi0, then the psi1 diagonal modulo {v - vbar}, in order."""
    for name in ("d", "psi0"):
        M, N = getattr(lhs, name), getattr(rhs, name)
        for i in range(lhs.rank):
            for j in range(lhs.rank):
                if M[i][j] != N[i][j]:
                    return f"{name} entry ({i},{j}): {M[i][j]} vs {N[i][j]}"
    for i in range(lhs.rank):
        if not quad_indeterminacy_equal(lhs.psi1[i][i], rhs.psi1[i][i], 1):
            return f"psi1 diagonal entry {i}: {lhs.psi1[i][i]} vs {rhs.psi1[i][i]}"
    return None


class TestAgainstMatrixFormulas:
    """The entrywise identity check and base change against the products of
    whole matrices they replace (helpers_oracles)."""

    def test_base_change_of_forms(self):
        rng = random.Random(191)
        for n in (1, 2, 3):
            for _ in range(30):
                f = QuadraticFormTheta(rand_matrix(rng, n), rng.choice((1, -1)))
                P = rand_monomial_P(rng, n)
                assert base_change(f, P).theta == base_change_by_matrices(f.theta, P)

    def test_base_change_of_resolutions(self):
        rng = random.Random(193)
        for n in (1, 2, 3):
            for _ in range(20):
                r = rand_resolution(rng, n)
                P = rand_monomial_P(rng, n)
                P_inv = monomial_inverse_by_oracle(P)
                got = base_change(r, P)
                assert got.d == base_change_by_matrices(r.d, P, P_inv)
                assert got.psi0 == base_change_by_matrices(r.psi0, P)
                assert got.psi1 == base_change_by_matrices(r.psi1, P)
                assert got.epsilon == r.epsilon

    def test_checked_inverse_is_two_sided(self):
        # the oracle's P^-1 is a two-sided inverse, and so is P*: a monomial
        # P of units is unitary, which is why base change forms no inverse
        rng = random.Random(197)
        for n in (1, 2, 3):
            for _ in range(30):
                P = rand_monomial_P(rng, n)
                P_inv = monomial_inverse_by_oracle(P)
                assert is_identity_matrix(dihedral_matmul(P, P_inv))
                assert is_identity_matrix(dihedral_matmul(P_inv, P))
                assert is_identity_matrix(dihedral_matmul(dihedral_conj_t(P), P))
                assert is_identity_matrix(dihedral_matmul(P, dihedral_conj_t(P)))
                assert P_inv == dihedral_conj_t(P)

    def test_identity_check_accepts_what_the_matrix_formula_accepts(self):
        rng = random.Random(199)
        outcomes = set()
        for _ in range(150):
            p, g = zpoly(rng, 2), zpoly(rng, 2)
            r = standard_resolution(p, g)
            r = base_change(r, rand_monomial_P(rng))
            if rng.random() < 0.5:
                r = switch_form(r)
            mats = {"d": r.d, "psi0": r.psi0, "psi1": r.psi1}
            if rng.random() < 0.8:
                name, i, j = rng.choice(tuple(mats)), rng.randint(0, 1), rng.randint(0, 1)
                M = [list(row) for row in mats[name]]
                M[i][j] = M[i][j] + (rand_entry(rng) if rng.random() < 0.7 else T_ELEM - T_ELEM.bar())
                mats[name] = tuple(tuple(row) for row in M)
            want = resolution_identity_by_matrices(mats["d"], mats["psi0"], mats["psi1"])
            assert resolution_identity_holds(mats["d"], mats["psi0"], mats["psi1"]) == want
            outcomes.add(want)
            if want:
                QuadResolution(mats["d"], mats["psi0"], mats["psi1"], r.epsilon)
            else:
                with pytest.raises(ValueError) as exc:
                    QuadResolution(mats["d"], mats["psi0"], mats["psi1"], r.epsilon)
                assert str(exc.value) == "resolution identity psi1 + psi1* = -d*psi0 fails"
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "P,message",
        [
            (((B, B), (DZERO, A)), "base-change matrix is not monomial"),
            (((B, DZERO), (A, DZERO)), "base-change matrix is not monomial"),
            (((DZERO,),), "base-change matrix is not monomial"),
            (((B * 2, DZERO), (DZERO, A)), "entry 2*t^1*a is not a group-element unit"),
            (((A + B,),), "entry 1*t^0*a+1*t^1*a is not a group-element unit"),
        ],
        ids=["two-in-a-row", "two-in-a-column", "zero", "twice-a-unit", "sum-of-units"],
    )
    def test_checked_inverse_messages(self, P, message):
        zero = tuple((DZERO,) * len(P) for _ in P)
        for x in (QuadraticFormTheta(zero, 1), QuadResolution(zero, zero, zero, 1)):
            with pytest.raises(ValueError) as exc:
                base_change(x, P)
            assert str(exc.value) == message
