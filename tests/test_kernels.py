"""Kernel primitives, checked against coefficient-level oracles."""

import random

import pytest

from unilcalc import kernels
from unilcalc.polynomials import Polynomial


def zpoly(bits):
    return Polynomial("Z", tuple(bits >> k & 1 for k in range(bits.bit_length())))


class TestF2:
    def test_deg(self):
        assert kernels.gf2_deg(0) == -1
        assert kernels.gf2_deg(1) == 0
        assert kernels.gf2_deg(0b1010) == 3

    def test_mul_against_convolution(self):
        rng = random.Random(10)
        for _ in range(300):
            a, b = rng.getrandbits(24), rng.getrandbits(24)
            expect = (zpoly(a) * zpoly(b)).map_ring("F2").to_bits()
            assert kernels.gf2_mul(a, b) == expect

    def test_divmod_invariant(self):
        rng = random.Random(11)
        for _ in range(300):
            a = rng.getrandbits(30)
            b = rng.getrandbits(12) | 1 << 12
            q, r = kernels.gf2_divmod(a, b)
            assert kernels.gf2_mul(q, b) ^ r == a
            assert kernels.gf2_deg(r) < kernels.gf2_deg(b)
            assert kernels.gf2_mod(a, b) == r
        with pytest.raises(ZeroDivisionError):
            kernels.gf2_divmod(1, 0)

    def test_gcd_exhaustive_small(self):
        def divides(d, x):
            return kernels.gf2_mod(x, d) == 0

        for a in range(1 << 5):
            for b in range(1 << 5):
                g = kernels.gf2_gcd(a, b)
                if a == b == 0:
                    assert g == 0
                    continue
                assert divides(g, a) and divides(g, b)
                for d in range(1, 1 << 6):
                    if divides(d, a) and divides(d, b):
                        assert kernels.gf2_deg(d) <= kernels.gf2_deg(g)

    def test_spread_is_substitution(self):
        rng = random.Random(12)
        for _ in range(200):
            a = rng.getrandbits(40)
            expect = 0
            for i in range(a.bit_length()):
                if a >> i & 1:
                    expect |= 1 << (2 * i)
            assert kernels.gf2_spread(a) == expect

    @pytest.mark.parametrize("n", [1, 8, 9, 84, 2048, 65537])
    def test_spread_wide_operand(self, n):
        # 65,537 bits is the longest operand MAX_EXPONENT admits
        a = random.Random(n).getrandbits(n) | 1 << (n - 1)
        assert kernels.gf2_spread(a) == int("0".join(format(a, "b")), 2)
        assert kernels.gf2_spread(0) == 0

    def test_cross_square_lift_identity(self):
        # lift(a)^2 = spread(a) + 2*cross(a) mod 4, coefficientwise
        rng = random.Random(13)
        for _ in range(200):
            a = rng.getrandbits(20)
            sq = zpoly(a) * zpoly(a)
            sp, cr = kernels.gf2_spread(a), kernels.gf2_cross_square(a)
            for k in range(2 * a.bit_length() + 1):
                assert sq.coefficient(k) % 4 == ((sp >> k & 1) + 2 * (cr >> k & 1)) % 4


class TestZ4:
    @staticmethod
    def rand_pair(rng):
        return rng.getrandbits(20), rng.getrandbits(20)

    def test_add_neg(self):
        rng = random.Random(14)
        for _ in range(300):
            a, b = self.rand_pair(rng), self.rand_pair(rng)
            pa, pb = Polynomial.from_z4pair(*a), Polynomial.from_z4pair(*b)
            assert Polynomial.from_z4pair(*kernels.z4_add(*a, *b)) == pa + pb
            assert Polynomial.from_z4pair(*kernels.z4_neg(*a)) == -pa
            assert kernels.z4_add(*a, *kernels.z4_neg(*a)) == (0, 0)

    def test_mul_against_convolution(self):
        rng = random.Random(15)
        for _ in range(200):
            a, b = self.rand_pair(rng), self.rand_pair(rng)
            pa, pb = Polynomial.from_z4pair(*a), Polynomial.from_z4pair(*b)
            assert Polynomial.from_z4pair(*kernels.z4_mul(*a, *b)) == pa * pb
        assert kernels.z4_mul(0, 0, 1, 1) == (0, 0)

    def test_sq_lift(self):
        rng = random.Random(16)
        for _ in range(200):
            f = rng.getrandbits(20)
            sq = (zpoly(f) * zpoly(f)).map_ring("Z4")
            assert Polynomial.from_z4pair(*kernels.z4_sq_lift(f)) == sq


@pytest.mark.parametrize(
    "la,lb",
    # 28 and 29 coefficients straddle a change of field width
    [(1, 1), (1, 3000), (28, 29), (64, 65), (9, 2999), (511, 700), (3000, 3000)],
)
def test_pure_z4_mul_long_operands(la, lb):
    rng = random.Random(la * 7919 + lb)

    def operand(n):
        lo, hi = rng.getrandbits(n), rng.getrandbits(n)
        return lo | 1 << (n - 1), hi  # exactly n coefficients

    a, b = operand(la), operand(lb)
    pa, pb = Polynomial.from_z4pair(*a), Polynomial.from_z4pair(*b)
    assert Polynomial.from_z4pair(*kernels.z4_mul(*a, *b)) == pa * pb


@pytest.mark.parametrize("n", [7300, 8000, 65537])
def test_pure_z4_mul_wide_operands(n):
    # (3 + 3t + ... + 3t^(n-1))^2 has coefficient 9*min(k+1, 2n-1-k) at t^k,
    # above 2^16 from n = 7282 on, so fixed 16-bit fields would carry into
    # their neighbours; n = 65537 is the longest operand MAX_EXPONENT admits
    ones = (1 << n) - 1
    coeffs = [min(k + 1, 2 * n - 1 - k) % 4 for k in range(2 * n - 1)]
    expect_lo = int("".join(str(c & 1) for c in reversed(coeffs)), 2)
    expect_hi = int("".join(str(c >> 1) for c in reversed(coeffs)), 2)
    assert kernels.z4_mul(ones, ones, ones, ones) == (expect_lo, expect_hi)
