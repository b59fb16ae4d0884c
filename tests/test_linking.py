import itertools
import random
import re

import pytest

from tests.helpers_oracles import (
    arf_by_eval_bq,
    check_sublagrangian_by_eval_bq,
    direct_sum,
    even_form_with_known_arf,
    f2_bits,
    lagrangian_candidates_by_eval_bq,
    mat_inverse,
    negate,
    sublagrangian_reduce_by_eval_bq,
    submodule_contains,
    symplectic_basis,
    witt_four_term_instance_by_direct_sum,
    z4_pair,
)
from tests.test_f2linalg import rand_unimodular
from unilcalc import f2linalg, lagrangian
from unilcalc.f2linalg import divmod_rows
from unilcalc.fixtures import make_N, witt_four_term_instance
from unilcalc.kernels import gf2_mul, z4_add, z4_mul, z4_sq_lift
from unilcalc.lagrangian import (
    MAX_SEARCH_COMBINATIONS,
    MAX_SEARCH_ROWS,
    Submodule,
    find_lagrangian,
    full_module,
    orthogonal_complement,
    search_rows,
    sublagrangian_reduce,
)
from unilcalc.linking import (
    LinkingForm,
    arf_even,
    eval_bq,
    eval_q,
    is_even,
    resolution_to_linking,
)
from unilcalc import forms
from unilcalc.dihedral import ONE as DONE, DihedralElement
from unilcalc.f2linalg import mat_mul, mat_transpose
from unilcalc.forms import QuadResolution, standard_resolution
from unilcalc.polynomials import Polynomial

T = Polynomial.t()
ONE = Polynomial.one()
DZERO = DihedralElement.zero()


def times_a(q):
    """The induced entry q(t)*a."""
    return DihedralElement.from_poly(q, a_twist=True)


def zpoly(rng, deg=3, lo=-3, hi=3):
    return Polynomial(tuple(rng.randint(lo, hi) for _ in range(deg + 1)))


def hyperbolic(q1=(0, 0), q2=(0, 0)):
    return LinkingForm(2, ((0, 1), (1, 0)), (q1, q2))


def rand_even_form(rng, k=2, deg=2):
    return rand_form(rng, k, deg, even=True)


def rand_form(rng, k=2, deg=2, even=False):
    """A random nonsingular form; an odd one draws its diagonal too."""
    from unilcalc.f2linalg import det

    while True:
        b = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1 if even else i, k):
                b[i][j] = b[j][i] = rng.randrange(1 << (deg + 1))
        bt = tuple(tuple(row) for row in b)
        if det(bt) == 1:
            q = tuple((b[i][i], rng.randrange(1 << (deg + 1))) for i in range(k))
            return LinkingForm(k, bt, q)


# independent q oracle: integer-polynomial arithmetic with randomly shifted
# lifts; agreement across shifts is exactly lift-independence
def _lift_bits(bits, rng, step):
    n = bits.bit_length() + 2
    return Polynomial(tuple((bits >> k & 1) + step * rng.randint(-2, 2) for k in range(n)))


def _lift_pair(pair, rng):
    lo, hi = pair
    n = max(lo.bit_length(), hi.bit_length()) + 2
    return Polynomial(tuple((lo >> k & 1) + 2 * (hi >> k & 1) + 4 * rng.randint(-2, 2) for k in range(n)))


def q_oracle(form, x, rng):
    X = [_lift_bits(xi, rng, 2) for xi in x]
    Q = [_lift_pair(qn, rng) for qn in form.q_num]
    total = Polynomial.zero()
    for i in range(form.rank):
        total = total + X[i] * X[i] * Q[i]
        for j in range(i + 1, form.rank):
            total = total + X[i] * X[j] * _lift_bits(form.b_num[i][j], rng, 2) * 2
    return z4_pair(total.coeffs)


def b_oracle(form, x, y, rng):
    total = Polynomial.zero()
    for i in range(form.rank):
        for j in range(form.rank):
            total = total + _lift_bits(x[i], rng, 2) * _lift_bits(form.b_num[i][j], rng, 2) * _lift_bits(y[j], rng, 2)
    return f2_bits(total.coeffs)


class TestMakeN:
    def test_t_one(self):
        f = make_N(T, ONE)
        assert f.b_num == ((0b10, 1), (1, 0))
        assert f.q_num == ((0b10, 0), (0, 1))

    def test_one_t(self):
        f = make_N(ONE, T)
        assert f.b_num == ((1, 1), (1, 0))
        assert f.q_num == ((1, 0), (0, 0b10))

    def test_zero_zero_is_regular(self):
        # b_num = [[0,1],[1,0]] has det 1, so the form is fine
        f = make_N(Polynomial.zero(), Polynomial.zero())
        assert f.b_num == ((0, 1), (1, 0))
        assert f.q_num == ((0, 0), (0, 0))

    def test_precondition(self):
        with pytest.raises(ValueError, match="p\\(0\\) = 0 or g\\(0\\) = 0"):
            make_N(ONE, ONE)
        make_N(T, ONE)
        make_N(ONE, T)

    def test_singular_b_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            LinkingForm(1, ((0b10,),), (((0b10, 0)),))


class TestEvalBq:
    def test_basis_values(self):
        f = make_N(T, ONE)
        assert eval_bq(f, (1, 0), (1, 0)) == (0b10, (0b10, 0))
        assert eval_bq(f, (0, 1), (0, 1)) == (0, (0, 1))
        assert eval_bq(f, (1, 0), (0, 1)) == (1, (0b10, 0))

    def test_zero_vector(self):
        f = make_N(T, ONE)
        assert eval_bq(f, (0, 0), (1, 1)) == (0, (0, 0))

    def test_sum_of_basis(self):
        # q(e1+e2) = t + 2 + 2*1 = t mod 4
        f = make_N(T, ONE)
        assert eval_bq(f, (1, 1), (1, 1))[1] == (0b10, 0)

    def test_against_integer_lift_oracle(self):
        rng = random.Random(191)
        for _ in range(120):
            f = direct_sum([make_N(T * zpoly(rng, 2), zpoly(rng, 2)) for _ in range(rng.randint(1, 2))])
            x = tuple(rng.randrange(8) for _ in range(f.rank))
            y = tuple(rng.randrange(8) for _ in range(f.rank))
            bv, qv = eval_bq(f, x, y)
            assert qv == q_oracle(f, x, rng)
            assert bv == b_oracle(f, x, y, rng)

    def test_quadratic_law(self):
        rng = random.Random(193)
        for _ in range(80):
            f = direct_sum([make_N(T * zpoly(rng, 2), zpoly(rng, 2))])
            x = tuple(rng.randrange(8) for _ in range(2))
            y = tuple(rng.randrange(8) for _ in range(2))
            bv, _ = eval_bq(f, x, y)
            qx = eval_bq(f, x, x)[1]
            qy = eval_bq(f, y, y)[1]
            qxy = eval_bq(f, tuple(a ^ b for a, b in zip(x, y)), x)[1]
            assert qxy == z4_add(*z4_add(*qx, *qy), 0, bv)

    def test_scaling_law(self):
        rng = random.Random(197)
        for _ in range(60):
            f = make_N(T * zpoly(rng, 2), zpoly(rng, 2))
            x = tuple(rng.randrange(8) for _ in range(2))
            s = rng.randrange(8)
            sx = tuple(gf2_mul(s, xi) for xi in x)
            assert eval_bq(f, sx, sx)[1] == z4_mul(*z4_sq_lift(s), *eval_bq(f, x, x)[1])


class TestSumAndNegate:
    def test_displayed_four_by_four(self):
        rng = random.Random(199)
        for _ in range(10):
            p = zpoly(rng)
            f = direct_sum([make_N(T, p), make_N(p, T)])
            pb = f2_bits(p.coeffs)
            p4 = z4_pair(p.coeffs)
            assert f.b_num == (
                (0b10, 1, 0, 0),
                (1, 0, 0, 0),
                (0, 0, pb, 1),
                (0, 0, 1, 0),
            )
            assert f.q_num == ((0b10, 0), (0, pb), p4, (0, 0b10))

    def test_negate_involution(self):
        rng = random.Random(211)
        for _ in range(20):
            f = make_N(T * zpoly(rng), zpoly(rng))
            assert negate(negate(f)) == f

    def test_empty_sum(self):
        z = direct_sum([])
        assert z.rank == 0
        assert direct_sum([z, z]).rank == 0


class TestResolutionDictionary:
    def test_round_trip_with_make_N(self):
        rng = random.Random(223)
        for _ in range(30):
            p, g = zpoly(rng), zpoly(rng)
            c = standard_resolution(T * p, g)
            assert resolution_to_linking(c) == make_N(T * p, g)

    def test_zero_complex(self):
        assert resolution_to_linking(QuadResolution((), (), (), 1)).rank == 0

    def test_rejects_general_d(self):
        r = QuadResolution(((DONE,),), ((times_a(T * 2),),), ((times_a(-T),),), 1)
        with pytest.raises(ValueError, match="2\\*identity"):
            resolution_to_linking(r)

    @pytest.mark.parametrize(
        "entry", [DihedralElement.monomial(1, 0), DihedralElement.monomial(-1, 1)], ids=["t", "t^-1*a"]
    )
    def test_rejects_entry_not_induced(self, entry):
        # psi0(0, 1) is t or t^-1*a, neither of the form q(t)*a with q in Z[t];
        # psi1 is chosen so that the resolution identity still holds
        two = DONE * 2
        d = ((two, DZERO), (DZERO, two))
        psi0 = ((DZERO, entry), (entry.bar(), DZERO))
        psi1 = ((DZERO, -entry * 2), (DZERO, DZERO))
        r = QuadResolution(d, psi0, psi1, 1)
        with pytest.raises(ValueError, match=re.escape(f"psi0 entry (0,1) {entry} is not q(t)*a")):
            resolution_to_linking(r)


class TestEven:
    def test_examples(self):
        assert not is_even(make_N(T, ONE))
        assert is_even(direct_sum([]))
        assert is_even(hyperbolic())

    def test_even_means_b_xx_vanishes(self):
        rng = random.Random(227)
        for _ in range(20):
            f = rand_even_form(rng, k=rng.choice((2, 4)))
            for _ in range(20):
                x = tuple(rng.randrange(8) for _ in range(f.rank))
                assert eval_bq(f, x, x)[0] == 0


class TestComplement:
    def test_zero_submodule(self):
        f = make_N(T, ONE)
        S = Submodule.from_generators((), 2)
        assert orthogonal_complement(f, S).basis == full_module(2).basis

    def test_full_module(self):
        f = make_N(T, ONE)
        assert orthogonal_complement(f, full_module(2)).rank == 0

    def test_perp_really_annihilates(self):
        rng = random.Random(229)
        for _ in range(30):
            f = direct_sum([make_N(T * zpoly(rng, 2), zpoly(rng, 2)) for _ in range(2)])
            S = Submodule.from_generators(
                [tuple(rng.randrange(4) for _ in range(4)) for _ in range(2)], 4
            )
            P = orthogonal_complement(f, S)
            for u in P.basis:
                for s in S.basis:
                    assert eval_bq(f, u, s)[0] == 0

    def test_displayed_instance_p_equals_t(self):
        G, S = witt_four_term_instance(T)
        perp = orthogonal_complement(G, S)
        u1 = (1, 0, 1, 0, 0, 0, 0, 0)
        u2 = (0, 0, 0, 1, 0, 0, 0, 0)
        u3 = (0, 0, 0, 0, 0b10, 0, 1, 0)
        u4 = (0, 0, 0, 0, 0, 0, 0, 1)
        v0 = (0, 0, 0, 0, 0, 1, 0, 0b10)
        v1 = (0, 1, 0, 1, 0, 0, 0, 0)
        disp = Submodule.from_generators((u1, u2, u3, u4, v0, v1), 8)
        # both bases are canonical, so equal spans give equal Submodules
        assert perp == disp


def u_vectors(p):
    # p = p_ev^2 + t p_od^2 mod 2
    pe, po = f2_bits(p.coeffs[0::2]), f2_bits(p.coeffs[1::2])
    u1 = (po, 0, 1, 0, pe, 0, 0, 0)
    u2 = (0, 0, 0, 1, 0, 0, 0, 0)
    u3 = (pe, 0, 0, 0, gf2_mul(2, po), 0, 1, 0)
    u4 = (0, 0, 0, 0, 0, 0, 0, 1)
    return u1, u2, u3, u4


class TestSublagrangian:
    def test_zero_sublagrangian_is_identity(self):
        f = make_N(T, ONE)
        S = Submodule.from_generators((), 2)
        assert sublagrangian_reduce(f, S) == f

    def test_lagrangian_kills_hyperbolic(self):
        f = hyperbolic()
        S = Submodule.from_generators(((1, 0),), 2)
        assert sublagrangian_reduce(f, S).rank == 0

    def test_rejects_nonisotropic(self):
        f = hyperbolic()
        S = Submodule.from_generators(((1, 0), (0, 1)), 2)
        with pytest.raises(ValueError, match="isotropic"):
            sublagrangian_reduce(f, S)

    def test_rejects_nonzero_q(self):
        f = hyperbolic(q1=(0, 1))  # q(e1) = 2
        S = Submodule.from_generators(((1, 0),), 2)
        with pytest.raises(ValueError, match="q does not vanish"):
            sublagrangian_reduce(f, S)

    def test_rejects_non_summand(self):
        f = hyperbolic()
        S = Submodule.from_generators(((0b10, 0),), 2)  # span(t*e1)
        with pytest.raises(ValueError, match="direct summand"):
            sublagrangian_reduce(f, S)

    def test_rejects_non_summand_of_high_degree(self):
        # three generators t^3000 + t^x + t^y + t^z + 1 in the even slots of
        # the rank-8 hyperbolic form, x, y and z drawn by random.Random(5)
        # in row order, whose coordinates in S-perp have degree 8,527
        rng = random.Random(5)

        def entry():
            x = 1 << 3000 | 1
            for _ in range(3):
                x ^= 1 << rng.randrange(3000)
            return x

        f = direct_sum([hyperbolic()] * 4)
        S = Submodule.from_generators([[0 if c % 2 else entry() for c in range(8)] for _ in range(3)], 8)
        with pytest.raises(ValueError, match="^S is not a direct summand of its orthogonal complement$"):
            sublagrangian_reduce(f, S)

    def test_four_term_instance_small_sweep(self):
        for bits in range(16):
            p = Polynomial(tuple(bits >> k & 1 for k in range(4)))
            G, S = witt_four_term_instance(p)
            red = sublagrangian_reduce(G, S)
            assert red.rank == 4
            assert is_even(red)
            assert arf_even(red) == 0

    def test_four_term_instance_against_direct_sum(self):
        # the form built block by block equals the direct sum of the four
        # generators, two of them negated: every 0/1 p of degree <= 8 but 0,
        # and random p over Z
        rng = random.Random(239)
        polys = [Polynomial(tuple(bits >> k & 1 for k in range(9))) for bits in range(1, 512)]
        polys += [zpoly(rng, deg=rng.randint(0, 5)) for _ in range(50)]
        for p in polys:
            assert witt_four_term_instance(p) == witt_four_term_instance_by_direct_sum(p), p

    def test_four_term_instance_builds_one_form(self, monkeypatch):
        # one LinkingForm, so one det, where the direct sum builds seven
        dets = []
        det = f2linalg.det

        def counting_det(M):
            dets.append(len(M))
            return det(M)

        monkeypatch.setattr(f2linalg, "det", counting_det)
        witt_four_term_instance(T)
        assert dets == [8]

    def test_u_basis_pairing_display(self):
        rng = random.Random(233)
        for _ in range(10):
            p = zpoly(rng)
            G, S = witt_four_term_instance(p)
            perp = orthogonal_complement(G, S)
            us = u_vectors(p)
            for u in us:
                assert not any(divmod_rows(u, perp.basis)[1])
            pair = [[eval_bq(G, ui, uj)[0] for uj in us] for ui in us]
            assert pair == [
                [0, 1, 0, 0],
                [1, 0, 0, 0],
                [0, 0, 0, 1],
                [0, 0, 1, 0],
            ]


class TestArf:
    def test_hyperbolic_zero(self):
        assert arf_even(hyperbolic()) == 0

    def test_hyperbolic_t_one(self):
        f = hyperbolic(q1=(0, 0b10), q2=(0, 1))  # q/2 = (t, 1)
        assert arf_even(f) == 0b10

    def test_rejects_odd(self):
        with pytest.raises(ValueError, match="even"):
            arf_even(make_N(T, ONE))

    def test_additive(self):
        rng = random.Random(239)
        for _ in range(20):
            f1 = rand_even_form(rng, 2, deg=4)
            f2 = rand_even_form(rng, 2, deg=4)
            assert arf_even(direct_sum([f1, f2])) == arf_even(f1) ^ arf_even(f2)

    def test_basis_independent(self):
        # the same form with its basis reversed, which changes every pivot
        rng = random.Random(241)
        for _ in range(20):
            f = rand_even_form(rng, k=rng.choice((2, 4)))
            k = f.rank
            rev = LinkingForm(
                k,
                tuple(tuple(f.b_num[k - 1 - i][k - 1 - j] for j in range(k)) for i in range(k)),
                f.q_num[::-1],
            )
            assert arf_even(rev) == arf_even(f)

    def test_known_class_forms(self):
        # hyperbolic blocks with q = (2a_i, 2b_i) after a random base change
        # have the class of sum a_i b_i
        rng = random.Random(243)
        for k in range(1, 6):
            for _ in range(8):
                qvals = [(rng.randrange(16), rng.randrange(16)) for _ in range(k)]
                b, q, arf = even_form_with_known_arf(qvals, 6 * k, 3, rng)
                assert arf_even(LinkingForm(2 * k, b, q)) == arf

    def test_vanishes_when_lagrangian_found(self):
        rng = random.Random(251)
        found = 0
        for _ in range(25):
            f = rand_even_form(rng, 2, deg=1)
            L = find_lagrangian(f, 2)
            if L is not None:
                found += 1
                assert arf_even(f) == 0
        assert found > 0


def outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def killed_blocks_instance(rng, kills, keeps, ops=None, deg=2):
    """A form with a known sublagrangian, on a random basis: hyperbolic
    blocks with q = (0, 2h), S spanned by the first vector of each, beside
    random rank-2 blocks, even or odd, that S leaves alone; then the basis
    is the rows of a random unimodular U, a product of ops moves (3 per
    basis vector by default) of degree deg, on which b is U b U^T, q(e_i)
    is q(U_i), and S has the coordinates S U^-1."""
    blocks = [hyperbolic(q2=(0, rng.randrange(8))) for _ in range(kills)]
    blocks += [rand_form(rng, 2, deg=2, even=rng.random() < 0.5) for _ in range(keeps)]
    rng.shuffle(blocks)
    f = direct_sum(blocks)
    k = f.rank
    S = []
    off = 0
    for blk in blocks:
        if blk.q_num[0] == (0, 0) and blk.b_num == ((0, 1), (1, 0)):
            S.append(tuple(int(c == off) for c in range(k)))
        off += 2
    U = rand_unimodular(rng, k, ops=3 * k if ops is None else ops, deg=deg)
    g = LinkingForm(k, mat_mul(mat_mul(U, f.b_num), mat_transpose(U)), tuple(eval_q(f, u) for u in U))
    return g, Submodule.from_generators(mat_mul(S, mat_inverse(U)) if S else (), k)


# sublagrangian_reduce's form on its quotient basis: b_num and q_num on
# witt_four_term_instance(p), with p the polynomial whose coefficients are
# the bits of the key
REDUCED_FOUR_TERM = {
    0: (((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)), ((0, 2), (0, 0), (0, 0), (0, 1))),
    1: (((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0), (0, 0), (0, 2), (0, 1))),
    2: (((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)), ((0, 2), (0, 4), (0, 2), (0, 1))),
    3: (((0, 0, 3, 1), (0, 0, 2, 1), (3, 2, 0, 0), (1, 1, 0, 0)), ((0, 6), (0, 4), (0, 6), (0, 1))),
    4: (((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)), ((0, 0), (0, 2), (0, 0), (0, 1))),
    5: (((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)), ((0, 2), (0, 2), (0, 4), (0, 1))),
    6: (((0, 2, 0, 1), (2, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)), ((0, 12), (0, 2), (0, 2), (0, 1))),
    7: (((0, 3, 0, 1), (3, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)), ((0, 0), (0, 2), (0, 0), (0, 1))),
    8: (((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)), ((0, 2), (0, 16), (0, 8), (0, 1))),
    9: (((0, 0, 9, 2), (0, 0, 4, 1), (9, 4, 0, 0), (2, 1, 0, 0)), ((0, 72), (0, 16), (0, 18), (0, 1))),
    10: (((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)), ((0, 2), (0, 28), (0, 14), (0, 1))),
    11: (((0, 0, 11, 3), (0, 0, 6, 1), (11, 6, 0, 0), (3, 1, 0, 0)), ((0, 98), (0, 28), (0, 22), (0, 1))),
    12: (((0, 1, 0, 1), (1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 1, 0)), ((0, 24), (0, 2), (0, 16), (0, 1))),
    13: (((0, 3, 0, 2), (3, 0, 1, 0), (0, 1, 0, 1), (2, 0, 1, 0)), ((0, 114), (0, 2), (0, 30), (0, 1))),
    14: (((0, 2, 0, 3), (2, 0, 1, 0), (0, 1, 0, 1), (3, 0, 1, 0)), ((0, 84), (0, 2), (0, 18), (0, 1))),
    15: (((0, 1, 0, 1), (1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 1, 0)), ((0, 20), (0, 2), (0, 24), (0, 1))),
}


class TestReducedBasisPinned:
    """The reduced forms sublagrangian_reduce returns on its quotient
    basis: the witt-check witness is written in that basis, so the
    four-term instances guard the benchmark's digests."""

    @pytest.mark.parametrize("bits", range(16))
    def test_four_term_instances(self, bits):
        G, S = witt_four_term_instance(Polynomial(tuple(bits >> k & 1 for k in range(4))))
        red = sublagrangian_reduce(G, S)
        assert (red.b_num, red.q_num) == REDUCED_FOUR_TERM[bits]

    def test_rank_20_killed_blocks(self):
        # nine hyperbolic blocks killed and one left, on a basis made by 80
        # moves of degree <= 3, as in the benchmark's rank-20 witt-check
        # forms: entries of degree up to 30
        form, S = killed_blocks_instance(random.Random(2), 9, 1, ops=80, deg=3)
        assert (form.rank, S.rank) == (20, 9)
        red = sublagrangian_reduce(form, S)
        assert red.b_num == ((1, 211), (211, 20740))
        assert red.q_num == ((1, 3), (20740, 56944))


class TestAgainstEvalBqOracles:
    """The Gram-product check and reduction and the carried Arf class
    against the eval_bq code they replaced (tests.helpers_oracles)."""

    def test_reduction_on_known_sublagrangians(self):
        rng = random.Random(261)
        cases = [witt_four_term_instance(Polynomial(tuple(bits >> k & 1 for k in range(4)))) for bits in range(16)]
        cases += [killed_blocks_instance(rng, rng.randint(1, 3), rng.randint(0, 2)) for _ in range(40)]
        for form, S in cases:
            red = sublagrangian_reduce(form, S)
            assert red == sublagrangian_reduce_by_eval_bq(form, S)
            assert red.rank == form.rank - 2 * S.rank

    def test_check_messages_on_random_submodules(self):
        # S spanned by basis vectors on which q is made to vanish, so that
        # b on S is the block of b_num they pick, plus at times an
        # arbitrary vector
        rng = random.Random(263)
        seen = set()
        for _ in range(150):
            if rng.random() < 0.4:
                f = rand_form(rng, rng.choice((2, 4)), deg=2, even=rng.random() < 0.5)
            else:
                qvals = [(rng.randrange(8), rng.randrange(8)) for _ in range(rng.randint(1, 4))]
                b, q, _ = even_form_with_known_arf(qvals, 4 * len(qvals), 2, rng)
                f = LinkingForm(len(q), b, q)
            k = f.rank
            picked = sorted(rng.sample(range(k), rng.randint(1, k)))
            q = tuple((lo, 0) if i in picked else (lo, hi) for i, (lo, hi) in enumerate(f.q_num))
            f = LinkingForm(k, f.b_num, q)
            gens = [tuple(int(c == i) for c in range(k)) for i in picked]
            if rng.random() < 0.2:
                gens.append(tuple(rng.randrange(4) for _ in range(k)))
            S = Submodule.from_generators(gens, k)
            got = outcome(lagrangian._check_sublagrangian, f, S)
            want = outcome(check_sublagrangian_by_eval_bq, f, S)
            if want is None:
                assert not isinstance(got, str)
            else:
                assert got == want
            seen.add(want if want is None else want.split(" ")[1][0])
            assert outcome(sublagrangian_reduce, f, S) == outcome(sublagrangian_reduce_by_eval_bq, f, S)
        # every outcome occurred: isotropic, q nonzero, b nonzero
        assert seen == {None, "q", "b"}

    def test_a_passing_check_puts_s_in_its_complement(self):
        # sublagrangian_reduce takes the complement's basis without asking
        # whether it contains S: a zero Gram matrix S * SB^T says it does
        rng = random.Random(271)
        passed = failed = 0
        for _ in range(120):
            if rng.random() < 0.3:
                f, S = killed_blocks_instance(rng, rng.randint(1, 3), rng.randint(0, 2))
            else:
                f = rand_form(rng, rng.choice((2, 4)), deg=2, even=rng.random() < 0.5)
                k = f.rank
                picked = sorted(rng.sample(range(k), rng.randint(1, k)))
                q = tuple((lo, 0) if i in picked else (lo, hi) for i, (lo, hi) in enumerate(f.q_num))
                f = LinkingForm(k, f.b_num, q)
                gens = [tuple(int(c == i) for c in range(k)) for i in picked]
                gens += [tuple(rng.randrange(8) for _ in range(k)) for _ in range(rng.randint(0, 2))]
                S = Submodule.from_generators(gens, k)
            if not S.basis:
                continue
            try:
                SB = lagrangian._check_sublagrangian(f, S)
            except ValueError:
                failed += 1
                continue
            passed += 1
            assert submodule_contains(lagrangian._complement(SB), S)
        assert passed >= 20 and failed >= 20

    def test_q_is_checked_before_b(self):
        # b(0, 1) = 1 and q(generator 1) = 2: the q failure is reported
        f = direct_sum([hyperbolic(q2=(0, 1)), hyperbolic()])
        S = Submodule.from_generators(((1, 0, 0, 0), (0, 1, 0, 0)), 4)
        message = "q does not vanish on generator 1 of S"
        for check in (lagrangian._check_sublagrangian, check_sublagrangian_by_eval_bq):
            with pytest.raises(ValueError, match=f"^{message}$"):
                check(f, S)

    def test_first_nonzero_b_in_row_major_order(self):
        # b pairs e_i with e_(9-i), q = 0, and S is spanned by e1, e2, e7, e8:
        # b(1, 2) and b(0, 3) are the nonzero pairings, and row-major order
        # over i <= j meets b(0, 3) first
        f = LinkingForm(8, tuple(tuple(int(i + j == 7) for j in range(8)) for i in range(8)), ((0, 0),) * 8)
        S = Submodule.from_generators([tuple(int(c == i) for c in range(8)) for i in (0, 1, 6, 7)], 8)
        message = "b(0,3) is nonzero on S: S is not isotropic"
        for check in (lagrangian._check_sublagrangian, check_sublagrangian_by_eval_bq):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check(f, S)

    def test_arf_class(self):
        rng = random.Random(267)
        cases = [rand_even_form(rng, k=rng.choice((2, 4)), deg=rng.randint(1, 4)) for _ in range(30)]
        for _ in range(30):
            qvals = [(rng.randrange(16), rng.randrange(16)) for _ in range(rng.randint(1, 6))]
            b, q, _ = even_form_with_known_arf(qvals, 6 * len(qvals), 3, rng)
            cases.append(LinkingForm(len(q), b, q))
        for f in cases:
            assert arf_even(f) == arf_by_eval_bq(f)

    def test_carried_q2_values(self):
        # the q2 values the oracle symplectic_basis returns are q/2 on its vectors
        rng = random.Random(269)
        for _ in range(20):
            qvals = [(rng.randrange(16), rng.randrange(16)) for _ in range(rng.randint(1, 5))]
            b, q, _ = even_form_with_known_arf(qvals, 6 * len(qvals), 3, rng)
            f = LinkingForm(len(q), b, q)
            for u, v, qu, qv in symplectic_basis(f.b_num, [hi for _, hi in f.q_num]):
                assert (eval_q(f, u), eval_q(f, v)) == ((0, qu), (0, qv))


class TestFindLagrangian:
    def test_zero_rank(self):
        z = direct_sum([])
        L = find_lagrangian(z, 2)
        assert L is not None and L.rank == 0

    def test_hyperbolic_finds_first_axis(self):
        L = find_lagrangian(hyperbolic(), 2)
        assert L is not None and L.basis == ((1, 0),)

    def test_nonzero_arf_blocks_search(self):
        f = hyperbolic(q1=(0, 0b10), q2=(0, 1))
        assert find_lagrangian(f, 3) is None

    def test_four_term_reduced_form(self):
        G, S = witt_four_term_instance(T)
        red = sublagrangian_reduce(G, S)
        L = find_lagrangian(red, 2)
        assert L is not None
        assert orthogonal_complement(red, L).basis == L.basis
        for row in L.basis:
            assert eval_bq(red, row, row)[1] == (0, 0)


def reduced_four_term(bits):
    p = Polynomial(tuple(bits >> k & 1 for k in range(4)))
    return sublagrangian_reduce(*witt_four_term_instance(p))


class TestCandidateFilter:
    """_lagrangian_candidates against the eval_bq filter it replaced."""

    @staticmethod
    def assert_same_stream(form, bound, limit=200):
        for pivots in itertools.combinations(range(form.rank), form.rank // 2):
            tables = lagrangian._slot_tables(form, bound)
            got = itertools.islice(lagrangian._lagrangian_candidates(form, pivots, bound, tables), limit)
            want = itertools.islice(lagrangian_candidates_by_eval_bq(form, pivots, bound), limit)
            assert list(got) == list(want), (form, pivots, bound)

    @pytest.mark.parametrize("bound", [0, 1, 2])
    def test_four_term_instances(self, bound):
        for bits in range(16):
            self.assert_same_stream(reduced_four_term(bits), bound)

    @pytest.mark.parametrize("even", [True, False])
    def test_random_forms(self, even):
        rng = random.Random(257 + even)
        for k, forms, bounds in ((2, 8, range(4)), (4, 3, range(3))):
            for _ in range(forms):
                f = rand_form(rng, k, deg=2, even=even)
                for bound in bounds:
                    self.assert_same_stream(f, bound)

    def test_first_witness_unchanged(self):
        # the witnesses find_lagrangian returned before rows were filtered
        # slot by slot
        for bits, bound, basis in (
            (0b1010, 3, ((2, 0, 1, 2), (0, 1, 1, 6))),
            (0b1000, 3, ((1, 1, 0, 6), (0, 3, 1, 11))),
            (0b1111, 3, ((1, 0, 0, 4), (0, 3, 1, 7))),
            (0b1011, 2, None),
            (0b1100, 2, None),
        ):
            L = find_lagrangian(reduced_four_term(bits), bound)
            assert (L and L.basis) == basis

    def test_z4_mul_calls_do_not_grow_with_rows(self, monkeypatch):
        # an exhaustive search: only the per-slot tables call z4_mul, once
        # per (slot, coefficient); filtering rows through eval_bq took
        # thousands of calls
        red = reduced_four_term(0b1011)
        calls = []

        def counting(*args):
            calls.append(args)
            return z4_mul(*args)

        monkeypatch.setattr(lagrangian, "z4_mul", counting)
        assert find_lagrangian(red, 2) is None
        assert len(calls) <= red.rank << 3


class TestSearchLimits:
    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            find_lagrangian(hyperbolic(), -1)

    @pytest.mark.parametrize("k", [2, 4, 6])
    @pytest.mark.parametrize("bound", [0, 1, 2])
    def test_search_rows_counts_row_lists(self, k, bound):
        # one row list per (pattern, row, pivot value, degrees of the later
        # pivots), each the product of its slots' value ranges
        free = 1 << (bound + 1)
        lists = {}
        for pivots in itertools.combinations(range(k), k // 2):
            for pvals in itertools.product(range(1, free), repeat=k // 2):
                for i, p in enumerate(pivots):
                    degs = dict((c, v.bit_length() - 1) for c, v in zip(pivots, pvals))
                    later = tuple(degs[c] for c in pivots[i + 1 :])
                    n = 1
                    for c in range(p + 1, k):
                        n *= 1 << degs[c] if c in degs else free
                    lists[pivots, i, pvals[i], later] = n
        assert search_rows(k, bound) == sum(lists.values())

    def test_limit_covers_the_bundled_searches(self):
        # verify-paper searches the reduced rank-4 forms at bound 3
        assert search_rows(4, 3) <= MAX_SEARCH_ROWS

    @pytest.mark.parametrize("k,bound", [(8, 2), (4, 6), (2, 10**9), (60, 0)])
    def test_oversized_search_refused_before_building(self, monkeypatch, k, bound):
        def no_tables(*args):
            raise AssertionError("tables built for a refused search")

        monkeypatch.setattr(lagrangian, "_slot_tables", no_tables)
        form = direct_sum([hyperbolic()] * (k // 2))
        with pytest.raises(ValueError, match=f"more than {MAX_SEARCH_ROWS} candidate rows"):
            find_lagrangian(form, bound)


def count_combinations(monkeypatch):
    """Make find_lagrangian record how many candidate combinations each
    search checks; returns the list it appends to."""
    counts = []
    candidates = lagrangian._lagrangian_candidates

    def counting(*args):
        for combo in candidates(*args):
            counts[-1] += 1
            yield combo

    def search(form, bound):
        counts.append(0)
        return find_lagrangian(form, bound)

    monkeypatch.setattr(lagrangian, "_lagrangian_candidates", counting)
    return counts, search


class TestCombinationLimit:
    def test_bundled_searches_stay_under_the_limit(self, monkeypatch):
        # the reduced four-term forms that verify-paper and the witt
        # benchmark search, at their degree bounds
        counts, search = count_combinations(monkeypatch)
        for bits in range(16):
            red = reduced_four_term(bits)
            for bound in range(4):
                search(red, bound)
        assert max(counts) <= 10 < MAX_SEARCH_COMBINATIONS

    def test_limit_stops_a_long_search(self, monkeypatch):
        # a nonzero Arf block beside two hyperbolic planes has no lagrangian,
        # so the search runs through every candidate; at bound 2 one pivot
        # pattern alone has 40.5M, which ran for minutes before the limit
        monkeypatch.setattr(lagrangian, "MAX_SEARCH_COMBINATIONS", 1000)
        counts, search = count_combinations(monkeypatch)
        form = direct_sum([hyperbolic(q1=(0, 0b10), q2=(0, 1)), hyperbolic(), hyperbolic()])
        with pytest.raises(
            ValueError,
            match="rank 6 at degree bound 2 checks more than 1000 candidate combinations",
        ):
            search(form, 2)
        assert counts == [1001]

    def test_limit_counts_across_patterns(self, monkeypatch):
        # with a nonzero Arf block every pattern is searched through; at
        # bound 1 each of the six holds candidates, 31 in all
        counts, search = count_combinations(monkeypatch)
        form = direct_sum([hyperbolic(q1=(0, 0b10), q2=(0, 1)), hyperbolic()])
        monkeypatch.setattr(lagrangian, "MAX_SEARCH_COMBINATIONS", 31)
        assert search(form, 1) is None
        assert counts == [31]
        monkeypatch.setattr(lagrangian, "MAX_SEARCH_COMBINATIONS", 30)
        with pytest.raises(ValueError, match="more than 30 candidate combinations"):
            search(form, 1)


class TestJson:
    def test_form_round_trip(self):
        f = make_N(T + T * T, T)
        assert LinkingForm.from_json_dict(f.to_json_dict()) == f

    def test_submodule_round_trip(self):
        G, S = witt_four_term_instance(T)
        assert Submodule.from_json_dict(S.to_json_dict(), G) == S
