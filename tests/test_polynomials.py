import random

import pytest

from tests.helpers_oracles import (
    all_z4_vectors,
    dense_idem_reduce,
    dense_versch_reduce,
    idem_relation_subgroup,
    versch_relation_subgroup,
)
from unilcalc.polynomials import (
    Polynomial,
    even_odd_decompose,
    idem_reduce,
    parse_poly,
    versch_reduce,
)


def F2(s):
    return parse_poly(s, "F2")


def Z4(s):
    return parse_poly(s, "Z4")


class TestArithmetic:
    def test_square_over_f2(self):
        p = F2("t+1")
        assert str(p * p) == "1*t^2+1*t^0"

    def test_square_over_z(self):
        p = parse_poly("t+1", "Z")
        assert str(p * p) == "1*t^2+2*t^1+1*t^0"

    def test_z4_residues(self):
        assert str(Z4("3*t") * Z4("2*t")) == "2*t^2"
        assert str(Z4("2*t") + Z4("2*t")) == "0"

    def test_q_ring_rejected(self):
        with pytest.raises(ValueError, match="^unknown ring 'Q'$"):
            parse_poly("1", "Q")
        with pytest.raises(ValueError, match="^unknown ring 'Q'$"):
            Polynomial("Q", (1,))

    def test_degree_sentinel(self):
        assert Polynomial.zero("Z").degree == -1
        assert parse_poly("5", "Z").degree == 0

    def test_ring_mismatch_rejected(self):
        with pytest.raises(ValueError, match="ring mismatch"):
            F2("t") + Z4("t")

    def test_negative_coefficients_round_trip(self):
        p = parse_poly("t^2-2*t+1", "Z")
        assert str(p) == "1*t^2-2*t^1+1*t^0"
        assert parse_poly(str(p), "Z") == p


class TestParser:
    @pytest.mark.parametrize(
        "text,canon",
        [
            ("t", "1*t^1"),
            ("t^4 + t", "1*t^4+1*t^1"),
            ("3", "3*t^0"),
            ("2*t", "2*t^1"),
            ("1*t^2+0*t^1+1*t^0", "1*t^2+1*t^0"),
            ("t+t", "2*t^1"),
        ],
    )
    def test_accepted_forms(self, text, canon):
        assert str(parse_poly(text, "Z")) == canon

    def test_canonical_residues(self):
        assert str(parse_poly("5*t^1", "Z4")) == "1*t^1"
        assert str(parse_poly("2*t^1", "F2")) == "0"

    def test_error_carries_position(self):
        with pytest.raises(ValueError, match="position 3"):
            parse_poly("t^2+t^^3", "F2")
        with pytest.raises(ValueError, match="negative exponent"):
            parse_poly("t^-1", "F2")
        with pytest.raises(ValueError, match="fractional"):
            parse_poly("1/2*t", "Z4")

    def test_error_position_counts_leading_blanks(self):
        with pytest.raises(ValueError, match=r"bad term '\+x' at position 3$"):
            parse_poly("  t+x", "F2")

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(200):
            ring = rng.choice(["Z", "F2", "Z4"])
            cs = tuple(rng.randint(-6, 6) for _ in range(rng.randint(0, 7)))
            p = Polynomial(ring, cs)
            assert parse_poly(str(p), ring) == p or p.is_zero()


class TestEvenOdd:
    def test_example(self):
        ev, od = even_odd_decompose(F2("t^2+t+1"))
        assert str(ev) == "1*t^1+1*t^0"
        assert str(od) == "1*t^0"

    def test_reconstruction_random(self):
        rng = random.Random(5)
        t = Polynomial.t("F2")
        for _ in range(300):
            p = Polynomial.from_bits(rng.getrandbits(14))
            ev, od = even_odd_decompose(p)
            assert ev * ev + t * od * od == p


class TestIdemReduce:
    @pytest.mark.parametrize(
        "text,canon",
        [
            ("t^4+t", "0"),
            ("t^2+1", "1*t^1+1*t^0"),
            ("t^8", "1*t^1"),
            ("t^6", "1*t^3"),
            ("t^5+t^3+t", "1*t^5+1*t^3+1*t^1"),
            ("1", "1*t^0"),
        ],
    )
    def test_examples(self, text, canon):
        assert str(Polynomial.from_bits(idem_reduce(F2(text).to_bits()))) == canon

    def test_canonical_support(self):
        for bits in range(1 << 9):
            rep = idem_reduce(bits)
            for k in range(2, rep.bit_length(), 2):
                assert rep >> k & 1 == 0

    def test_additive(self):
        rng = random.Random(2)
        for _ in range(200):
            a = rng.getrandbits(12)
            b = rng.getrandbits(12)
            assert idem_reduce(a) ^ idem_reduce(b) == idem_reduce(a ^ b)

    def test_against_relation_subgroup(self):
        # oracle: the reduction must differ from its input by a relation,
        # be constant on cosets, and separate distinct cosets
        max_exp = 6
        rel = idem_relation_subgroup(max_exp)
        images = set()
        for bits in range(1 << (max_exp + 1)):
            rep = idem_reduce(bits)
            assert bits ^ rep in rel
            images.add(rep)
            for r in rel:
                other = idem_reduce(bits ^ r)
                assert other == rep
        assert len(images) == (1 << (max_exp + 1)) // len(rel)


class TestVerschReduce:
    @pytest.mark.parametrize(
        "text,canon",
        [
            ("3*t^2", "1*t^2+2*t^1"),
            ("2*t^4", "2*t^1"),
            ("t", "1*t^1"),
            ("2*t^2", "2*t^1"),
            ("3*t^4+2*t^2", "1*t^4"),  # 2t^2+2t^2 cancels mod 4
        ],
    )
    def test_examples(self, text, canon):
        assert str(Polynomial.from_z4pair(*versch_reduce(*Z4(text).to_z4pair()))) == canon

    def test_constant_term_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            versch_reduce(*Z4("1+t").to_z4pair())

    def test_canonical_even_coefficients(self):
        rng = random.Random(3)
        for _ in range(400):
            cs = (0,) + tuple(rng.randint(0, 3) for _ in range(8))
            rep = Polynomial.from_z4pair(*versch_reduce(*Polynomial("Z4", cs).to_z4pair()))
            for k in range(2, rep.degree + 1, 2):
                assert rep.coefficient(k) in (0, 1)

    def test_against_relation_subgroup(self):
        max_exp = 6
        rel = versch_relation_subgroup(max_exp)
        n = max_exp + 1

        def vec(pair):
            return tuple(Polynomial.from_z4pair(*pair).coefficient(k) for k in range(n))

        def sub(u, v):
            return tuple((a - b) % 4 for a, b in zip(u, v))

        images = set()
        for v in all_z4_vectors(max_exp):
            rep = vec(versch_reduce(*Polynomial("Z4", v).to_z4pair()))
            assert sub(v, rep) in rel
            images.add(rep)
        assert len(images) == 4**max_exp // len(rel)


class TestAgainstDenseReference:
    """The bit rules against the dense coefficient-list rewrites, on every
    polynomial supported on exponents <= 8 (zero constant term for Z4)."""

    def test_idem_exhaustive(self):
        for bits in range(1 << 9):
            assert idem_reduce(bits) == dense_idem_reduce(Polynomial.from_bits(bits)).to_bits()

    def test_versch_exhaustive(self):
        for v in all_z4_vectors(8):
            p = Polynomial("Z4", v)
            assert versch_reduce(*p.to_z4pair()) == dense_versch_reduce(p).to_z4pair()
