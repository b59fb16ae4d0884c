import random
import re

import pytest

from tests.helpers_oracles import even_form_with_known_arf, symplectic_basis
from tests.test_linking import rand_even_form
from unilcalc.f2linalg import det, mat_mul, mat_transpose
from unilcalc.funcfield import symplectic_q2
from unilcalc.linking import LinkingForm


def rand_alternating(rng, k, deg):
    """A random symmetric matrix with zero diagonal and entries of degree
    <= deg, a third of them 0 and a third 1, so that unimodular ones are
    common."""
    b = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            b[i][j] = b[j][i] = rng.choice((0, 1, rng.randrange(1 << (deg + 1))))
    return tuple(tuple(row) for row in b)


class TestSymplecticBasis:
    def test_basis_is_symplectic_and_unimodular(self):
        # P stacks u_1, v_1, u_2, v_2, ...: P B P^T = J and det P = 1
        rng = random.Random(31)
        forms = [rand_even_form(rng, k=rng.choice((2, 4, 6)), deg=3).b_num for _ in range(10)]
        for k in range(1, 6):
            qvals = [(rng.randrange(16), rng.randrange(16)) for _ in range(k)]
            forms.append(even_form_with_known_arf(qvals, 6 * k, 3, rng)[0])
        for B in forms:
            P = tuple(w for u, v, _, _ in symplectic_basis(B, [0] * len(B)) for w in (u, v))
            n = len(B)
            J = tuple(tuple(int(j == (i ^ 1)) for j in range(n)) for i in range(n))
            assert mat_mul(mat_mul(P, B), mat_transpose(P)) == J
            assert det(P) == 1

    def test_coordinate_degrees_stay_linear_in_the_rank(self):
        # Bezout over a pairing row followed by a Hermite basis of the
        # projections doubles the coordinate degrees at every split, to
        # degree 25,284 on a rank-20 form whose entries have degree 28
        rng = random.Random(37)
        for _ in range(3):
            qvals = [(rng.randrange(16), rng.randrange(16)) for _ in range(10)]
            B = even_form_with_known_arf(qvals, 60, 3, rng)[0]
            entry_deg = max(x.bit_length() for row in B for x in row) - 1
            pairs = symplectic_basis(B, [0] * len(B))
            coord_deg = max(x.bit_length() for u, v, _, _ in pairs for w in (u, v) for x in w) - 1
            assert coord_deg <= len(B) * entry_deg

    def test_q2_pairs_match_the_oracle(self):
        # the pass makes the oracle's moves without its coordinates, so it
        # returns the same q2 values in the same order
        rng = random.Random(41)
        for _ in range(40):
            k = rng.randint(0, 10)
            qvals = [(rng.randrange(16), rng.randrange(16)) for _ in range(k)]
            B, q, _ = even_form_with_known_arf(qvals, 6 * k, 3, rng)
            q2 = [hi for _, hi in q]
            assert symplectic_q2(B, q2) == [(qu, qv) for _, _, qu, qv in symplectic_basis(B, q2)]

    def test_pass_decides_unimodularity_as_det_does(self):
        # every move is unimodular and a split-off plane has determinant 1,
        # so the pass fails exactly when det B is not 1
        rng = random.Random(43)
        outcomes = {True: 0, False: 0}
        for _ in range(3000):
            B = rand_alternating(rng, rng.randint(0, 8), 3)
            try:
                symplectic_q2(B, [0] * len(B))
                passed = True
            except ValueError:
                passed = False
            assert passed == (det(B) == 1), B
            outcomes[passed] += 1
        assert min(outcomes.values()) > 300

    @pytest.mark.parametrize(
        "B",
        [
            ((0, 0b10), (0b10, 0)),  # det t^2
            ((0, 1, 0), (1, 0, 0), (0, 0, 0)),  # odd rank, singular
            ((0,),),
        ],
    )
    def test_rejects_a_pairing_that_is_not_unimodular(self, B):
        for split in (symplectic_q2, symplectic_basis):
            with pytest.raises(ValueError, match="not unimodular"):
                split(B, [0] * len(B))

    def test_rejects_a_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="zero diagonal"):
            symplectic_q2(((1,),), [0])


class TestEvenFormConstruction:
    def test_singular_even_form_takes_the_det_message(self):
        # the pass decides singularity, with the message det gave
        message = "b is singular: det(b_num) is not a unit in F2[t]"
        for B in (((0, 0b10), (0b10, 0)), ((0,),), ((0, 1, 0), (1, 0, 0), (0, 0, 0))):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                LinkingForm(len(B), B, ((0, 0),) * len(B))

    def test_singularity_is_checked_before_q_mod_2(self):
        # a singular even form whose q_num is also wrong mod 2 reports the
        # singularity, as when det ran first
        with pytest.raises(ValueError, match="singular"):
            LinkingForm(2, ((0, 0b10), (0b10, 0)), ((1, 0), (0, 0)))
        with pytest.raises(ValueError, match=r"q_num\[0\] mod 2"):
            LinkingForm(2, ((0, 1), (1, 0)), ((1, 0), (0, 0)))

    def test_arf_class_is_not_a_field(self):
        # equal forms are equal records whatever they cache
        a = LinkingForm(2, ((0, 1), (1, 0)), ((0, 1), (0, 1)))
        b = LinkingForm(2, ((0, 1), (1, 0)), ((0, 1), (0, 1)))
        assert a == b and hash(a) == hash(b)
        assert "_arf" not in repr(a)
