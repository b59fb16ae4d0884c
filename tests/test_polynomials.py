import random
import re
import time

import pytest

from tests.helpers_oracles import (
    all_z4_vectors,
    dense_idem_reduce,
    dense_versch_reduce,
    f2_bits,
    f2_coeffs,
    idem_relation_subgroup,
    parse_poly,
    split_terms_by_concatenation,
    versch_relation_subgroup,
    z4_coeffs,
    z4_pair,
)
from unilcalc.fixtures import witt_four_term_instance
from unilcalc.kernels import gf2_mul, z4_add, z4_mul
from unilcalc.lagrangian import Submodule
from unilcalc.polynomials import (
    Polynomial,
    _split_terms,
    idem_reduce,
    parse_f2,
    parse_z4,
    render,
    versch_reduce,
)


class TestArithmetic:
    def test_square_over_f2(self):
        p = parse_f2("t+1")
        assert render(gf2_mul(p, p)) == "1*t^2+1*t^0"

    def test_square_over_z(self):
        p = parse_poly("t+1")
        assert str(p * p) == "1*t^2+2*t^1+1*t^0"

    def test_z4_residues(self):
        assert render(z4_mul(*parse_z4("3*t"), *parse_z4("2*t"))) == "2*t^2"
        assert render(z4_add(*parse_z4("2*t"), *parse_z4("2*t"))) == "0"

    def test_degree_sentinel(self):
        assert Polynomial.zero().degree == -1
        assert parse_poly("5").degree == 0

    def test_non_polynomial_operand_rejected(self):
        with pytest.raises(TypeError, match="expected Polynomial, got tuple"):
            Polynomial.t() + (0, 1)

    @pytest.mark.parametrize(
        "coeffs,message",
        [
            ((0.5, 2.9), "coefficient 0 is not an integer: float 0.5"),
            ((1, 2, "3"), "coefficient 2 is not an integer: str '3'"),
            ((0, None), "coefficient 1 is not an integer: NoneType None"),
        ],
    )
    def test_coefficients_must_be_integers(self, coeffs, message):
        with pytest.raises(TypeError, match=re.escape(message)):
            Polynomial(coeffs)

    def test_negative_coefficients_round_trip(self):
        p = parse_poly("t^2-2*t+1")
        assert str(p) == "1*t^2-2*t^1+1*t^0"
        assert parse_poly(str(p)) == p


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
            # blanks between tokens
            ("t ^ 3", "1*t^3"),
            ("2 * t", "2*t^1"),
            ("- t", "-1*t^1"),
            ("1 / 1 * t", "1*t^1"),
            (" 3 * t ^ 2 - 1 ", "3*t^2-1*t^0"),
        ],
    )
    def test_accepted_forms(self, text, canon):
        assert str(parse_poly(text)) == canon

    def test_canonical_residues(self):
        assert render(parse_z4("5*t^1")) == "1*t^1"
        assert render(parse_z4("-t")) == "3*t^1"
        assert render(parse_f2("2*t^1")) == "0"

    def test_error_carries_position(self):
        with pytest.raises(ValueError, match="position 3"):
            parse_f2("t^2+t^^3")
        with pytest.raises(ValueError, match="negative exponent"):
            parse_f2("t^-1")
        with pytest.raises(ValueError, match="fractional"):
            parse_z4("1/2*t")

    @pytest.mark.parametrize(
        "text,canon",
        [("6/3*t", "2*t^1"), ("-6/3", "-2*t^0"), ("0/7*t^2+t", "1*t^1"), ("-09/003*t^2", "-3*t^2"),
         ("1" + "0" * 3999 + "/1" + "0" * 3998 + "*t", "10*t^1")],
    )
    def test_fraction_with_integer_value_is_the_quotient(self, text, canon):
        assert str(parse_poly(text)) == canon

    @pytest.mark.parametrize(
        "text,message",
        [
            ("t+1/2*t^2", "fractional coefficient at position 1"),
            ("t-7/2", "fractional coefficient at position 1"),
            # the exponent is checked before the fraction
            ("1/2*t^99999999", "exponent above the limit 65536 at position 0"),
            ("1/2*t^-1", "negative exponent at position 0"),
            ("1/0*t", "zero denominator at position 0"),
        ],
    )
    def test_fraction_errors_in_order(self, text, message):
        for parse in (parse_poly, parse_f2, parse_z4):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse(text)

    def test_error_position_counts_leading_blanks(self):
        with pytest.raises(ValueError, match=r"bad term '\+x' at position 3$"):
            parse_f2("  t+x")

    @pytest.mark.parametrize(
        "text", ["", " ", "t^^2", "  t+x", "t^-1", "1/2*t", "1/0", "t+-", "2*t^99999"]
    )
    def test_the_three_parsers_reject_alike(self, text):
        messages = set()
        for parse in (parse_poly, parse_f2, parse_z4):
            with pytest.raises(ValueError) as exc:
                parse(text)
            messages.add(str(exc.value))
        assert len(messages) == 1, messages

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1 0*t", "bad term '1 0*t' at position 0"),
            ("t^1 0", "bad term 't^1 0' at position 0"),
            ("2*t^2 2", "bad term '2*t^2 2' at position 0"),
            ("t + 1 2", "bad term '+ 1 2' at position 2"),
            ("1/1  0*t", "bad term '1/1  0*t' at position 0"),
            ("t ^ 1 0", "bad term 't ^ 1 0' at position 0"),
        ],
    )
    def test_blanks_inside_a_number_are_refused(self, text, message):
        # dropping the blanks would read 10*t, t^10, 2*t^22, ...
        for parse in (parse_poly, parse_f2, parse_z4):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse(text)

    def test_split_matches_the_concatenating_splitter(self):
        # same terms at the same offsets, so every message and position
        # stays as it was
        rng = random.Random(241)
        for _ in range(20000):
            text = "".join(rng.choice("+-*^/ t0123\t\n") for _ in range(rng.randint(0, 16)))
            assert _split_terms(text) == split_terms_by_concatenation(text), text

    @pytest.mark.parametrize(
        "text",
        ["-" * 200000 + "t", "+ " * 200000, "t" + "+-" * 100000],
        ids=["minus-run", "plus-blank-run", "alternating-run"],
    )
    def test_a_long_run_of_signs_is_refused_in_linear_time(self, text):
        # a JSON form field has no length limit; a splitter that re-strips
        # the term at every sign takes minutes on 200,000 signs
        for parse in (parse_poly, parse_f2, parse_z4):
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match="^bad term '"):
                parse(text)
            assert time.perf_counter() - t0 < 1.0

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(200):
            p = Polynomial(tuple(rng.randint(-6, 6) for _ in range(rng.randint(0, 7))))
            assert parse_poly(str(p)) == p or p.is_zero()
            assert parse_poly(render(p, compact=True)) == p or p.is_zero()


class TestEvenOdd:
    """witt_four_term_instance splits p mod 2 as p_ev^2 + t*p_od^2 for its
    sublagrangian span(v0, v1), v0 = p_ev e4 + e6 + t p_od e8 and
    v1 = e2 + p_od e4 + p_ev e8."""

    @staticmethod
    def expected_sublagrangian(pe, po):
        v0 = (0, 0, 0, pe, 0, 1, 0, po << 1)
        v1 = (0, 1, 0, po, 0, 0, 0, pe)
        return Submodule.from_generators((v0, v1), 8)

    def test_example(self):
        # t^2 + t + 1 = (t + 1)^2 + t*1^2
        _, S = witt_four_term_instance(parse_poly("t^2+t+1"))
        assert S == self.expected_sublagrangian(0b11, 0b1)

    def test_reconstruction_random(self):
        rng = random.Random(5)
        for _ in range(300):
            cs = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 14)))
            ev, od = f2_bits(cs[0::2]), f2_bits(cs[1::2])
            assert gf2_mul(ev, ev) ^ gf2_mul(0b10, gf2_mul(od, od)) == f2_bits(cs)
            _, S = witt_four_term_instance(Polynomial(cs))
            assert S == self.expected_sublagrangian(ev, od)


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
        assert render(idem_reduce(parse_f2(text))) == canon

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
        assert render(versch_reduce(*parse_z4(text))) == canon

    def test_constant_term_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            versch_reduce(*parse_z4("1+t"))

    def test_canonical_even_coefficients(self):
        rng = random.Random(3)
        for _ in range(400):
            cs = (0,) + tuple(rng.randint(0, 3) for _ in range(8))
            rep = z4_coeffs(versch_reduce(*z4_pair(cs)))
            for k in range(2, len(rep), 2):
                assert rep[k] in (0, 1)

    def test_against_relation_subgroup(self):
        max_exp = 6
        rel = versch_relation_subgroup(max_exp)
        n = max_exp + 1

        def vec(pair):
            cs = z4_coeffs(pair)
            return cs + (0,) * (n - len(cs))

        def sub(u, v):
            return tuple((a - b) % 4 for a, b in zip(u, v))

        images = set()
        for v in all_z4_vectors(max_exp):
            rep = vec(versch_reduce(*z4_pair(v)))
            assert sub(v, rep) in rel
            images.add(rep)
        assert len(images) == 4**max_exp // len(rel)


class TestAgainstDenseReference:
    """The bit rules against the dense coefficient-list rewrites, on every
    polynomial supported on exponents <= 8 (zero constant term for Z4)."""

    def test_idem_exhaustive(self):
        for bits in range(1 << 9):
            assert idem_reduce(bits) == dense_idem_reduce(f2_coeffs(bits))

    def test_versch_exhaustive(self):
        for v in all_z4_vectors(8):
            assert versch_reduce(*z4_pair(v)) == dense_versch_reduce(v)
