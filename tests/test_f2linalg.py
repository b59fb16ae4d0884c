import itertools
import random

import pytest

from tests.helpers_oracles import bareiss_det, mat_inverse, minors_gcd
from unilcalc.f2linalg import (
    det,
    divmod_rows,
    hermite_form,
    hnf,
    left_kernel,
    mat_identity,
    mat_mul,
    unimodular_completion,
)
from unilcalc.kernels import gf2_divmod, gf2_mul


def rand_mat(rng, m, n, deg=3):
    return tuple(tuple(rng.randrange(1 << (deg + 1)) for _ in range(n)) for _ in range(m))


def rand_unimodular(rng, n, ops=8, deg=2):
    U = [list(r) for r in mat_identity(n)]
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.3:
            U[i], U[j] = U[j], U[i]
        else:
            q = rng.randrange(1 << (deg + 1))
            U[j] = [x ^ gf2_mul(q, y) for x, y in zip(U[j], U[i])]
    return tuple(tuple(r) for r in U)


def naive_det(M):
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j]:
            minor = tuple(row[:j] + row[j + 1 :] for row in M[1:])
            total ^= gf2_mul(M[0][j], naive_det(minor))
    return total


class TestDet:
    def test_against_cofactor_expansion(self):
        rng = random.Random(61)
        for _ in range(120):
            n = rng.randint(1, 4)
            M = rand_mat(rng, n, n)
            assert det(M) == naive_det(M)

    def test_multiplicative(self):
        rng = random.Random(67)
        for _ in range(60):
            n = rng.randint(1, 3)
            Am, Bm = rand_mat(rng, n, n, 2), rand_mat(rng, n, n, 2)
            assert det(mat_mul(Am, Bm)) == gf2_mul(det(Am), det(Bm))

    def test_singular(self):
        assert det(((0b10, 0b10), (0b10, 0b10))) == 0

    def test_against_bareiss(self):
        # sizes 0-8, dense and sparse, singular ones among them
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randint(0, 8)
            M = [list(row) for row in rand_mat(rng, n, n, rng.randint(0, 5))]
            for row in M:
                for j in range(n):
                    if rng.random() < 0.4:
                        row[j] = 0
            if n > 1 and rng.random() < 0.2:
                M[rng.randrange(n)] = list(M[rng.randrange(n)])
            assert det(M) == bareiss_det(M), M

    def test_unimodular_matrices_have_det_one(self):
        rng = random.Random(73)
        for _ in range(40):
            n = rng.randint(1, 10)
            assert det(rand_unimodular(rng, n, ops=4 * n, deg=3)) == 1


class TestHermite:
    def _assert_canonical(self, H):
        pivots = []
        seen_zero = False
        for row in H:
            j = next((c for c, x in enumerate(row) if x), None)
            if j is None:
                seen_zero = True
                continue
            assert not seen_zero, "zero row above a nonzero row"
            assert not pivots or j > pivots[-1][0]
            pivots.append((j, row[j]))
        for r, (j, p) in enumerate(pivots):
            for i in range(r):
                assert gf2_divmod(H[i][j], p)[0] == 0, "entry above pivot not reduced"

    def test_transform_and_shape(self):
        rng = random.Random(71)
        for _ in range(80):
            M = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
            H, U = hnf(M)
            assert mat_mul(U, M) == H
            assert det(U) == 1
            self._assert_canonical(H)
            assert hnf(H)[0] == H

    def test_hermite_form_is_the_h_of_hnf(self):
        # hermite_form makes hnf's row moves on H alone
        rng = random.Random(72)
        assert hermite_form(()) == hnf(())[0] == ()
        for _ in range(80):
            m = rng.randint(1, 5)
            M = rand_mat(rng, m, rng.randint(1, 4))
            assert hermite_form(M) == hnf(M)[0]
            assert hermite_form(M + M[:1]) == hnf(M + M[:1])[0]

    def test_row_span_invariant(self):
        rng = random.Random(73)
        for _ in range(60):
            m = rng.randint(2, 4)
            M = rand_mat(rng, m, rng.randint(2, 4))
            W = rand_unimodular(rng, m)
            assert hnf(M)[0] == hnf(mat_mul(W, M))[0]

    def test_membership(self):
        rng = random.Random(79)
        for _ in range(60):
            M = rand_mat(rng, 3, 4, deg=2)
            H, _ = hnf(M)
            coeffs = [rng.randrange(16) for _ in range(3)]
            (v,) = mat_mul((tuple(coeffs),), M)
            assert divmod_rows(v, H)[1] == (0, 0, 0, 0)

    def test_divmod_rows_invariant(self):
        # v = q*H + rem, with rem reduced below every pivot
        rng = random.Random(80)
        for _ in range(60):
            H, _ = hnf(rand_mat(rng, 3, 4, deg=2))
            v = tuple(rng.randrange(64) for _ in range(4))
            q, rem = divmod_rows(v, H)
            rows = H[: len(q)]
            span = mat_mul((q,), rows)[0] if rows else (0, 0, 0, 0)
            assert tuple(x ^ y for x, y in zip(span, rem)) == v
            for row in rows:
                j = next(c for c, x in enumerate(row) if x)
                assert rem[j].bit_length() < row[j].bit_length()


class TestKernel:
    def test_annihilates(self):
        rng = random.Random(83)
        for _ in range(80):
            M = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
            K = left_kernel(M)
            for row in mat_mul(K, M):
                assert not any(row)
            assert len(K) == len(M) - sum(1 for row in hermite_form(M) if any(row))

    def test_complete_small(self):
        # every bounded-degree kernel vector lies in the computed span
        rng = random.Random(89)
        for _ in range(8):
            M = rand_mat(rng, 3, 2, deg=1)
            K = left_kernel(M)
            KH = K if K else ((0, 0, 0),)
            for u in itertools.product(range(16), repeat=3):
                if not any(mat_mul((u,), M)[0]):
                    assert not any(divmod_rows(u, KH)[1])


class TestInverse:
    def test_round_trip(self):
        rng = random.Random(97)
        for _ in range(40):
            n = rng.randint(1, 4)
            U = rand_unimodular(rng, n)
            assert mat_mul(U, mat_inverse(U)) == mat_identity(n)

    def test_rejects_nonunit(self):
        with pytest.raises(ValueError):
            mat_inverse(((0b10,),))


class TestUnimodularCompletion:
    def test_completion_exists_exactly_when_the_minors_are_coprime(self):
        # [C; Y] is unimodular for the Y returned, and None is returned
        # exactly when the r x r minors of C have a gcd other than 1
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(data=st.data())
        def prop(data):
            m = data.draw(st.integers(1, 5))
            r = data.draw(st.integers(1, m))
            row = st.tuples(*[st.integers(0, 15)] * m)
            C = tuple(data.draw(st.lists(row, min_size=r, max_size=r)))
            Y = unimodular_completion(C)
            assert (Y is None) == (minors_gcd(C) != 1)
            if Y is not None:
                assert len(Y) == m - r
                assert bareiss_det(C + Y) == 1

        prop()

    def test_leading_rows_of_a_unimodular_matrix(self):
        # a unimodular matrix's leading rows are completed by the rest of
        # some unimodular matrix; a row times t is not completed
        rng = random.Random(107)
        for _ in range(40):
            m = rng.randint(1, 6)
            r = rng.randint(1, m)
            C = rand_unimodular(rng, m, ops=4 * m, deg=3)[:r]
            Y = unimodular_completion(C)
            assert Y is not None and det(C + Y) == 1
            C2 = (tuple(gf2_mul(0b10, x) for x in C[0]),) + C[1:]
            assert unimodular_completion(C2) is None
