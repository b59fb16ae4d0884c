import random

import pytest

from tests.helpers_oracles import even_form_with_known_arf
from tests.test_linking import rand_even_form
from unilcalc.f2linalg import det, mat_mul, mat_transpose
from unilcalc.funcfield import symplectic_basis


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

    @pytest.mark.parametrize(
        "B",
        [
            ((0, 0b10), (0b10, 0)),  # det t^2
            ((0, 1, 0), (1, 0, 0), (0, 0, 0)),  # odd rank, singular
            ((0,),),
        ],
    )
    def test_rejects_a_pairing_that_is_not_unimodular(self, B):
        with pytest.raises(ValueError, match="not unimodular"):
            symplectic_basis(B, [0] * len(B))

    def test_rejects_a_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="zero diagonal"):
            symplectic_basis(((1,),), [0])
