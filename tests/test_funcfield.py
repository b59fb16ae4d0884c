import random

import pytest

from unilcalc.funcfield import (
    F2Rational,
    artin_schreier_reduce,
    factor,
    gf2_gcdext,
    gf2_pow,
    is_irreducible,
    partial_fractions,
    sqrt_mod,
)
from unilcalc.kernels import gf2_deg, gf2_mod, gf2_mul
from unilcalc.polynomials import Polynomial, parse_poly
from tests.helpers_oracles import trial_division_factor


def bits(s):
    return parse_poly(s, "F2").to_bits()


def naive_irreducible(f):
    # trial division against every smaller polynomial
    d = gf2_deg(f)
    if d <= 0:
        return False
    for c in range(2, 1 << d):
        if gf2_deg(c) >= 1 and gf2_mod(f, c) == 0 and gf2_deg(c) < d:
            return False
    return True


class TestFactorization:
    def test_irreducibility_matches_trial_division(self):
        for f in range(2, 1 << 10):
            assert is_irreducible(f) == naive_irreducible(f), bin(f)

    def test_factor_recombines(self):
        rng = random.Random(19)
        for _ in range(300):
            f = rng.getrandbits(rng.randint(2, 14)) | 1 << rng.randint(1, 13)
            prod = 1
            for pi, m in factor(f):
                assert is_irreducible(pi)
                for _ in range(m):
                    prod = gf2_mul(prod, pi)
            assert prod == f

    def test_factor_matches_trial_division(self):
        for f in range(1, 1 << 12):
            assert factor(f) == trial_division_factor(f), bin(f)
        with pytest.raises(ValueError):
            factor(0)

    def test_factor_matches_sympy(self):
        galoistools = pytest.importorskip("sympy.polys.galoistools")
        from sympy.polys.domains import ZZ

        def sympy_factor(f):
            coeffs = [ZZ(int(b)) for b in bin(f)[2:]]
            _, fs = galoistools.gf_factor(coeffs, 2, ZZ)
            return tuple(sorted((int("".join(str(int(c)) for c in p), 2), m) for p, m in fs))

        rng = random.Random(43)
        cases = [rng.getrandbits(d) | 1 << d for d in (3, 57, 120, 200)]
        g, h = rng.getrandbits(50) | 1 << 50, rng.getrandbits(40) | 1 << 40
        cases += [
            gf2_pow(g, 2),
            gf2_pow(rng.getrandbits(49) | 1 << 49, 4),
            gf2_mul(gf2_pow(h, 3), gf2_pow(rng.getrandbits(40) | 1 << 40, 2)),
        ]
        same_degree = set()
        while len(same_degree) < 8:
            pi = rng.getrandbits(20) | 1 << 20
            if is_irreducible(pi):
                same_degree.add(pi)
        prod = 1
        for pi in same_degree:
            prod = gf2_mul(prod, pi)
        cases.append(prod)
        for f in cases:
            assert gf2_deg(f) <= 200
            assert factor(f) == sympy_factor(f), bin(f)

    def test_factor_beyond_trial_division(self):
        # trial division would try about 2^40 divisors here
        rng = random.Random(47)
        pis = []
        while len(pis) < 2:
            pi = rng.getrandbits(40) | 1 << 40 | 1
            if is_irreducible(pi) and pi not in pis:
                pis.append(pi)
        f = gf2_pow(gf2_mul(*pis), 2)
        assert factor(f) == tuple(sorted((pi, 2) for pi in pis))

    def test_gcdext(self):
        rng = random.Random(23)
        for _ in range(200):
            a, b = rng.getrandbits(12), rng.getrandbits(12)
            if not (a and b):
                continue
            g, u, v = gf2_gcdext(a, b)
            assert gf2_mul(u, a) ^ gf2_mul(v, b) == g
            assert gf2_mod(a, g) == 0 and gf2_mod(b, g) == 0

    def test_sqrt_mod(self):
        for pi in (0b111, 0b1011, 0b10011, 0b11001):
            for a in range(1, 1 << gf2_deg(pi)):
                r = sqrt_mod(a, pi)
                assert gf2_mod(gf2_mul(r, r), pi) == a


class TestPartialFractions:
    def test_recombine_random(self):
        rng = random.Random(41)
        for _ in range(200):
            num = rng.getrandbits(12)
            den = rng.getrandbits(10) | (1 << rng.randint(1, 9))
            poly, poles = partial_fractions(num, den)
            total = F2Rational(poly)
            for pi, levels in poles.items():
                for j, a in levels.items():
                    assert gf2_deg(a) < gf2_deg(pi)
                    q = 1
                    for _ in range(j):
                        q = gf2_mul(q, pi)
                    total = total + F2Rational(a, q)
            assert total == F2Rational(num, den)


class TestArtinSchreier:
    def test_polynomial_example(self):
        cls = artin_schreier_reduce(bits("t^3+t"), bits("t"))
        assert str(cls) == "1*t^1+1*t^0"
        assert not cls.pole_parts

    def test_pole_example(self):
        cls = artin_schreier_reduce(1, bits("t^2"))
        assert cls.poly_rep == 0
        assert cls.pole_parts == ((2, ((1, 1),)),)
        assert str(cls) == "(1*t^0)/(1*t^1)^1"

    def test_zero(self):
        assert artin_schreier_reduce(0, 1).is_zero()
        assert str(artin_schreier_reduce(0, 1)) == "0"

    def test_canonical_support(self):
        rng = random.Random(7)
        for _ in range(300):
            num = rng.getrandbits(14)
            den = rng.getrandbits(8) | (1 << rng.randint(1, 7))
            cls = artin_schreier_reduce(num, den)
            for k in range(2, cls.poly_rep.bit_length(), 2):
                assert cls.poly_rep >> k & 1 == 0
            for pi, levels in cls.pole_parts:
                assert is_irreducible(pi)
                for j, a in levels:
                    assert j % 2 == 1 and a and gf2_deg(a) < gf2_deg(pi)

    def test_relations_die(self):
        # the defining relations g^2 - g must reduce to zero
        rng = random.Random(13)
        for _ in range(200):
            gn = rng.getrandbits(10)
            gd = rng.getrandbits(8) | (1 << rng.randint(1, 7))
            g = F2Rational(gn, gd)
            rel = g * g + g
            assert artin_schreier_reduce(rel).is_zero(), (bin(gn), bin(gd))

    def test_class_constant_on_cosets(self):
        rng = random.Random(17)
        for _ in range(150):
            x = F2Rational(
                rng.getrandbits(10), rng.getrandbits(8) | (1 << rng.randint(1, 7))
            )
            g = F2Rational(
                rng.getrandbits(9), rng.getrandbits(7) | (1 << rng.randint(1, 6))
            )
            assert artin_schreier_reduce(x + g * g + g) == artin_schreier_reduce(x)

    def test_addition_matches_field_addition(self):
        rng = random.Random(29)
        for _ in range(150):
            a = F2Rational(rng.getrandbits(9), rng.getrandbits(7) | (1 << 6))
            b = F2Rational(rng.getrandbits(9), rng.getrandbits(7) | (1 << 6))
            assert artin_schreier_reduce(a) + artin_schreier_reduce(b) == (
                artin_schreier_reduce(a + b)
            )

    def test_distinct_small_classes(self):
        # t and t^3 generate distinct classes; 1 survives (1^2 - 1 = 0)
        one = artin_schreier_reduce(1, 1)
        assert str(one) == "1*t^0"
        seen = {
            str(artin_schreier_reduce(b, 1))
            for b in (0b10, 0b1000, 0b1010, 0b100000)
        }
        assert len(seen) == 4
