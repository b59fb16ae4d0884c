import random
from fractions import Fraction

import pytest

from tests.helpers_oracles import (
    oracle_add,
    oracle_bar,
    oracle_mul,
    oracle_neg,
    oracle_switch,
    ring_oracle,
)
from unilcalc.dihedral import (
    A,
    B,
    ONE,
    T,
    DihedralElement,
    quad_indeterminacy_equal,
)


def rand_elem(rng, nterms=3):
    d = {}
    for _ in range(rng.randint(0, nterms)):
        g = (rng.randint(-3, 3), rng.randint(0, 1))
        d[g] = d.get(g, 0) + rng.randint(-4, 4)
    return DihedralElement(d)


class TestGroupLaw:
    def test_t_is_ba(self):
        assert B * A == T
        assert A * B == T.switch()  # ab = t^-1

    def test_relations(self):
        assert A * A == ONE
        assert B * B == ONE
        assert (T * A) == B

    def test_conjugation_flips(self):
        # a t^k = t^-k a
        for k in range(-4, 5):
            tk = DihedralElement.monomial(k, 0)
            tmk = DihedralElement.monomial(-k, 0)
            assert A * tk == tmk * A

    def test_associative_random(self):
        rng = random.Random(31)
        for _ in range(150):
            x, y, z = (rand_elem(rng) for _ in range(3))
            assert (x * y) * z == x * (y * z)

    def test_distributive_random(self):
        rng = random.Random(37)
        for _ in range(150):
            x, y, z = (rand_elem(rng) for _ in range(3))
            assert x * (y + z) == x * y + x * z


class TestRepresentation:
    def test_insertion_order_does_not_matter(self):
        rng = random.Random(61)
        for _ in range(100):
            d = {(rng.randint(-3, 3), rng.randint(0, 1)): rng.randint(-4, 4) for _ in range(5)}
            shuffled = list(d.items())
            rng.shuffle(shuffled)
            x, y = DihedralElement(d), DihedralElement(dict(shuffled))
            assert x == y and hash(x) == hash(y)
            assert x.terms == tuple(sorted(x.terms, key=lambda it: (it[0][1], it[0][0])))
            assert all(c for _, c in x.terms)
            assert DihedralElement(x.terms) == x

    def test_cancellation_leaves_no_terms(self):
        rng = random.Random(67)
        for _ in range(50):
            x = rand_elem(rng, nterms=5)
            assert (x + (-x)).terms == ()
            assert (x - x).is_zero() and x - x == DihedralElement.zero()


class TestInputChecks:
    def test_repeated_group_elements_are_summed(self):
        assert DihedralElement([((0, 0), 1), ((0, 0), 1)]) == DihedralElement.monomial(0, 0, 2)
        assert str(DihedralElement([((0, 0), 1), ((0, 0), 1)])) == "2*t^0"
        assert DihedralElement([((2, 1), 3), ((2, 1), -3)]).is_zero()
        assert DihedralElement({(1, 0): 2, (-1, 1): 0}) == DihedralElement.monomial(1, 0, 2)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DihedralElement([((0, 0), 1.5)]),
            lambda: DihedralElement([((0.5, 0), 1)]),
            lambda: DihedralElement({(0, 0): "1"}),
            lambda: DihedralElement({(1.0, 1): 1}),
            lambda: DihedralElement.monomial(0, 0, c=1.5),
            lambda: DihedralElement.monomial(0.5, 0),
        ],
        ids=["init-coefficient", "init-exponent", "dict-coefficient", "dict-exponent",
             "monomial-coefficient", "monomial-exponent"],
    )
    def test_non_integers_rejected(self, build):
        with pytest.raises(TypeError, match="is not an integer"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DihedralElement.monomial(0, 2),
            lambda: DihedralElement.monomial(1, -1),
            lambda: DihedralElement.monomial(0, 1.0),
            lambda: DihedralElement([((0, 2), 1)]),
            lambda: DihedralElement({(3, 5): 1}),
        ],
        ids=["monomial-2", "monomial--1", "monomial-float", "init-2", "dict-5"],
    )
    def test_a_exponent_must_be_0_or_1(self, build):
        with pytest.raises(ValueError, match="a-exponent must be 0 or 1"):
            build()


def oracle_elem(rng, shape):
    """A random element of a given shape: zero, a single rotation t^k or
    reflection t^k a, or a sum of several terms; exponents run negative
    and coefficients are +-1 and +-2."""
    if shape == "zero":
        return DihedralElement.zero()
    coeff = lambda: rng.choice((1, -1, 2, -2))  # noqa: E731
    if shape in ("rotation", "reflection"):
        return DihedralElement.monomial(rng.randint(-4, 4), int(shape == "reflection"), c=coeff())
    return DihedralElement(
        [((rng.randint(-3, 3), rng.randint(0, 1)), coeff()) for _ in range(rng.randint(2, 5))]
    )


class TestAgainstActionOracle:
    """The ring operations against D_inf acting on Z by t: x -> x + 1 and
    a: x -> -x (helpers_oracles), where products compose maps."""

    SHAPES = ("zero", "rotation", "reflection", "general")

    @pytest.mark.parametrize("left", SHAPES)
    @pytest.mark.parametrize("right", SHAPES)
    def test_product_paths(self, left, right):
        rng = random.Random(f"{left}-{right}")
        for _ in range(60):
            x, y = oracle_elem(rng, left), oracle_elem(rng, right)
            assert ring_oracle(x * y) == oracle_mul(ring_oracle(x), ring_oracle(y)), (x, y)

    def test_ring_operations(self):
        rng = random.Random(71)
        for _ in range(300):
            x, y = (oracle_elem(rng, rng.choice(self.SHAPES)) for _ in range(2))
            X, Y = ring_oracle(x), ring_oracle(y)
            assert ring_oracle(x + y) == oracle_add(X, Y)
            assert ring_oracle(x - y) == oracle_add(X, oracle_neg(Y))
            assert ring_oracle(-x) == oracle_neg(X)
            assert ring_oracle(x.bar()) == oracle_bar(X)
            assert ring_oracle(x.switch()) == oracle_switch(X)

    def test_cancelling_sums(self):
        rng = random.Random(73)
        for _ in range(100):
            x, y = (oracle_elem(rng, "general") for _ in range(2))
            s = x * y + (-x) * y
            assert s.is_zero() and s.terms == () and ring_oracle(s) == {}
            assert x + (-x) == DihedralElement.zero()

    def test_generators(self):
        # b is a conjugated by x -> 1/2 - x, and t = ba
        assert ring_oracle(A.switch()) == ring_oracle(B)
        assert ring_oracle(T) == oracle_mul(ring_oracle(B), ring_oracle(A))


class TestInvolution:
    def test_examples(self):
        assert T.bar() == T.switch()  # t -> t^-1
        assert A.bar() == A
        assert DihedralElement.monomial(2, 1).bar() == DihedralElement.monomial(2, 1)

    def test_anti_automorphism(self):
        rng = random.Random(43)
        for _ in range(240):
            x, y = rand_elem(rng), rand_elem(rng)
            assert (x * y).bar() == y.bar() * x.bar()
            assert x.bar().bar() == x


class TestSwitch:
    def test_generator_images(self):
        assert A.switch() == B
        assert B.switch() == A
        assert T.switch() == DihedralElement.monomial(-1, 0)
        # t^k a -> t^(1-k) a
        assert DihedralElement.monomial(3, 1).switch() == DihedralElement.monomial(-2, 1)

    def test_ring_automorphism(self):
        rng = random.Random(47)
        for _ in range(150):
            x, y = rand_elem(rng), rand_elem(rng)
            assert (x * y).switch() == x.switch() * y.switch()
            assert x.switch().switch() == x


class TestParsing:
    # each id is the element written in the literal grammar the canonical
    # print reads back as
    @pytest.mark.parametrize(
        "x,canon",
        [
            pytest.param(
                DihedralElement({(-1, 1): 2, (0, 0): 3}),
                "3*t^0+2*t^-1*a",
                id="2*t^-1*a + 3*t^0-3*t^0+2*t^-1*a",
            ),
            pytest.param(A, "1*t^0*a", id="a-1*t^0*a"),
            pytest.param(B, "1*t^1*a", id="b-1*t^1*a"),
            pytest.param(T * A, "1*t^1*a", id="t*a-1*t^1*a"),
            pytest.param(DihedralElement.monomial(3, 0, c=-2), "-2*t^3", id="-2*t^3--2*t^3"),
            pytest.param(DihedralElement.monomial(0, 0, c=5), "5*t^0", id="5-5*t^0"),
            pytest.param(A + A, "2*t^0*a", id="a+a-2*t^0*a"),
            pytest.param(DihedralElement.monomial(-1, 0) * B, "1*t^0*a", id="t^-1*b-1*t^0*a"),
        ],
    )
    def test_accepted(self, x, canon):
        assert str(x) == canon


# independent membership oracle: naive Gaussian elimination over Q on the
# group elements appearing, with its own involution arithmetic
def _inv(g):
    k, e = g
    return (k, 1) if e else (-k, 0)


def naive_member(diff, eps):
    d = dict(diff.terms)
    elems = sorted(set(d) | {_inv(g) for g in d})
    cols = []
    seen = set()
    for g in elems:
        if g in seen:
            continue
        seen.update((g, _inv(g)))
        col = {g: 1}
        gi = _inv(g)
        col[gi] = col.get(gi, 0) - eps
        vec = [Fraction(col.get(h, 0)) for h in elems]
        if any(vec):
            cols.append(vec)
    rows = [[cols[j][i] for j in range(len(cols))] + [Fraction(d.get(h, 0))] for i, h in enumerate(elems)]
    piv = 0
    for j in range(len(cols)):
        sel = next((i for i in range(piv, len(rows)) if rows[i][j]), None)
        if sel is None:
            continue
        rows[piv], rows[sel] = rows[sel], rows[piv]
        for i in range(len(rows)):
            if i != piv and rows[i][j]:
                f = rows[i][j] / rows[piv][j]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[piv])]
        piv += 1
    sol = {}
    for i in range(len(rows)):
        lead = next((j for j in range(len(cols)) if rows[i][j]), None)
        if lead is None:
            if rows[i][-1]:
                return False  # inconsistent
        else:
            sol[lead] = rows[i][-1] / rows[i][lead]
    return all(v.denominator == 1 for v in sol.values())


class TestQuadIndeterminacy:
    def test_spec_cases(self):
        assert quad_indeterminacy_equal(B, T * A, -1)
        assert quad_indeterminacy_equal(T, DihedralElement.monomial(-1, 0), 1)
        assert not quad_indeterminacy_equal(ONE, DihedralElement.zero(), 1)

    def test_two_a_type_mod_minus(self):
        # v - (-1)*bar(v) = 2*t^k*a for a-type v in the untwisted ring
        x = DihedralElement.monomial(3, 1, c=2)
        assert quad_indeterminacy_equal(x, DihedralElement.zero(), -1)
        assert not quad_indeterminacy_equal(DihedralElement.monomial(3, 1), DihedralElement.zero(), -1)

    def test_against_gaussian_elimination(self):
        rng = random.Random(59)
        checked = 0
        for trial in range(400):
            eps = rng.choice((1, -1))
            x = rand_elem(rng, 4)
            if trial % 2:
                # build a definite member of the subgroup
                y = DihedralElement.zero()
                for _ in range(rng.randint(1, 3)):
                    v = rand_elem(rng, 2)
                    y = y + (v - v.bar() * eps)
                x, y = x, x - y
            else:
                y = rand_elem(rng, 4)
            got = quad_indeterminacy_equal(x, y, eps)
            want = naive_member(x - y, eps)
            assert got == want, (x, y, eps)
            checked += 1
        assert checked == 400
