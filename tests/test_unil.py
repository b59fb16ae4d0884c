import random
import time

import pytest

from tests.helpers_oracles import (
    dense_versch_reduce,
    element_order,
    f2_bits,
    f2_coeffs,
    is_multiple_of_two,
    n_class_of_generator,
    switch_orbit_elements,
    switch_orbits,
    unil_coefficient_tuple,
    z4_coeffs,
    z4_pair,
)
from unilcalc import fixtures
from unilcalc.polynomials import Polynomial, idem_reduce, versch_reduce
from unilcalc.unil import (
    B_coords,
    UNil2Element,
    UNil3Element,
    j1,
    j2,
    n_class_combination,
    orbit_count,
    orbit_reps,
    parse_unil3,
    pi_map,
    switch_unil3,
)

T = Polynomial.t()
ONE = Polynomial.one()


def J1(p):
    """j1 of a Polynomial over Z, read mod 4."""
    return j1(p.mod4())


def J2(p):
    """j2 of a Polynomial over Z, read mod 2."""
    return j2(p.mod4()[0])


def zpoly(rng, deg=3, lo=-3, hi=3):
    return Polynomial(tuple(rng.randint(lo, hi) for _ in range(deg + 1)))


def rand_unil3(rng, deg=3):
    x = versch_reduce(*z4_pair((0,) + tuple(rng.randrange(4) for _ in range(deg))))
    y = f2_bits((0,) + tuple(rng.randrange(2) for _ in range(deg)))
    return UNil3Element(x, y)


class TestUNil2:
    def test_idem_collapse(self):
        e = UNil2Element(idem_reduce(0b100))  # t^2 ~ t
        assert e == UNil2Element(idem_reduce(0b10))

    def test_constant_term_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            UNil2Element(idem_reduce(0b11))

    def test_non_canonical_rejected(self):
        # t^2 ~ t: only the canonical bitmask 0b10 names the class
        assert UNil2Element(0b10) == UNil2Element(idem_reduce(0b100))
        for bits in (0b100, 0b10100, 0b1000010):
            with pytest.raises(ValueError, match="not a canonical representative"):
                UNil2Element(bits)

    def test_order_two(self):
        e = UNil2Element(0b10)
        assert (e + e).is_zero()
        assert element_order(e) == 2
        assert element_order(UNil2Element.zero()) == 1

    def test_switch_is_identity(self):
        # every element is its own switch-orbit
        for d in range(5):
            elements, _reps = switch_orbit_elements("UNil2", d)
            assert list(orbit_reps("UNil2", d)) == [e.arf_bits for e in elements]


class TestUNil3Basics:
    def test_j1_t_has_order_four(self):
        e = j1((0b10, 0))
        assert not (e + e).is_zero()
        assert (e + e + e + e).is_zero()
        assert element_order(e) == 4

    def test_j2_has_order_two(self):
        e = j2(0b10)
        assert (e + e).is_zero()
        assert element_order(e) == 2

    def test_add_zero(self):
        rng = random.Random(7)
        for _ in range(20):
            e = rand_unil3(rng)
            assert e + UNil3Element.zero() == e

    def test_negation(self):
        rng = random.Random(11)
        for _ in range(20):
            e = rand_unil3(rng)
            assert (e + (-e)).is_zero()

    def test_mixed_types_rejected(self):
        for lhs, rhs in ((J1(T), UNil2Element.zero()), (UNil2Element.zero(), J1(T))):
            with pytest.raises(TypeError):
                lhs + rhs
            with pytest.raises(TypeError):
                lhs - rhs

    def test_even_exponent_class_can_have_order_four(self):
        # doubling [t^2] gives [2t^2] = [2t] != 0 through the relation
        e = J1(Polynomial((0, 0, 1)))
        assert element_order(e) == 4
        assert e.doubled() == J1(Polynomial((0, 2)))

    def test_y_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            j2(1)

    def test_non_canonical_x_rejected(self):
        # 2*t^2 ~ 2*t: only the canonical pair (0, 0b10) names the class
        assert UNil3Element((0, 0b10), 0) == J1(Polynomial((0, 0, 2)))
        for x in ((0, 0b100), (0b100, 0b100), (0b10, 0b10010000)):
            with pytest.raises(ValueError, match="not a canonical representative"):
                UNil3Element(x, 0)
        for x in ((1, 0), (0, 1), (0b11, 0b10)):
            with pytest.raises(ValueError, match="x-coordinate has nonzero constant term"):
                UNil3Element(x, 0)

    def test_enumerated_elements_accepted(self):
        # the constructor's check accepts every canonical element it is given
        for e in switch_orbit_elements("UNil3", 3)[0]:
            assert UNil3Element(e.x, e.y) == e


class TestPiMap:
    def test_spec_values(self):
        assert pi_map(versch_reduce(*z4_pair((0, 1)))) == f2_bits((0, 1))
        assert pi_map(versch_reduce(*z4_pair((0, 2)))) == 0
        got = pi_map(versch_reduce(*z4_pair((0, 3, 1))))
        assert got == f2_bits((0, 1, 1))

    def test_well_defined_across_relations(self):
        rng = random.Random(13)
        for _ in range(40):
            raw = (0,) + tuple(rng.randrange(4) for _ in range(5))
            assert pi_map(versch_reduce(*z4_pair(raw))) == f2_bits(raw)


class TestSwitch3:
    def test_j1_t(self):
        assert switch_unil3(J1(T)) == J1(T) + J2(T)

    def test_j2_fixed(self):
        rng = random.Random(17)
        for _ in range(20):
            e = J2(T * zpoly(rng))
            assert switch_unil3(e) == e

    def test_doubles_fixed(self):
        rng = random.Random(19)
        for _ in range(20):
            e = rand_unil3(rng).doubled()
            assert switch_unil3(e) == e

    def test_involution_and_additive(self):
        rng = random.Random(23)
        for _ in range(30):
            e, f = rand_unil3(rng), rand_unil3(rng)
            assert switch_unil3(switch_unil3(e)) == e
            assert switch_unil3(e + f) == switch_unil3(e) + switch_unil3(f)

    def test_fixed_point_criterion_exhaustive(self):
        for e in switch_orbit_elements("UNil3", 2)[0]:
            assert (switch_unil3(e) == e) == (pi_map(e.x) == 0)

    def test_moved_order_two_element_exists(self):
        e = J1(Polynomial((0, 1, 1)))  # x = [t + t^2]
        assert element_order(e) == 2
        assert switch_unil3(e) != e


class TestBCoords:
    def test_on_generators(self):
        rng = random.Random(29)
        for _ in range(20):
            tp = T * zpoly(rng)
            b1, b2 = B_coords(J1(tp))
            assert b1 == f2_bits(tp.coeffs) and b2 == 0
            b1, b2 = B_coords(J2(tp))
            assert b1 == 0 and b2 == f2_bits(tp.coeffs)

    def test_switch_conjugation(self):
        rng = random.Random(31)
        for _ in range(100):
            e = rand_unil3(rng)
            b1, b2 = B_coords(e)
            assert B_coords(switch_unil3(e)) == (b1, b1 ^ b2)

    def test_surjective_and_kernel_under_truncation(self):
        for d in (1, 2, 3):
            elements = switch_orbit_elements("UNil3", d)[0]
            image = set(map(B_coords, elements))
            assert len(image) == 4**d
            kernel = {e for e in elements if B_coords(e) == (0, 0)}
            doubles = {e.doubled() for e in elements}
            assert kernel == doubles


class TestDictionary:
    def test_t_one(self):
        assert n_class_of_generator(T, ONE) == J1(T)

    def test_one_t(self):
        assert n_class_of_generator(ONE, T) == J1(T) + J2(T)

    def test_p_t_is_switched_j1(self):
        rng = random.Random(37)
        for _ in range(20):
            p = zpoly(rng)
            if p.coefficient(0) == 0:
                p = p + ONE
            assert n_class_of_generator(p, T) == switch_unil3(J1(T * p))

    def test_tp_one(self):
        rng = random.Random(41)
        for _ in range(20):
            p = zpoly(rng)
            assert n_class_of_generator(T * p, ONE) == J1(T * p)

    def test_one_t_squared(self):
        # two switch rewrites: [N_{1,t^2}] = sw[N_{t,t}] = sw^2[N_{t^2,1}]
        t2 = Polynomial((0, 0, 1))
        assert n_class_of_generator(ONE, t2) == J1(t2)

    def test_mod_reduction_of_slots(self):
        assert n_class_of_generator(T, Polynomial((3,))) == J1(T)
        assert n_class_of_generator(T + Polynomial((0, 4)), ONE) == J1(T)

    def test_precondition(self):
        for p, g in ((ONE, ONE), (T, T), (Polynomial.zero(), Polynomial.zero())):
            with pytest.raises(ValueError, match="exactly one"):
                n_class_of_generator(p, g)

    def test_unsupported_shape(self):
        with pytest.raises(ValueError, match="outside the generated dictionary"):
            n_class_of_generator(T, ONE + T * T)
        with pytest.raises(ValueError, match="outside the generated dictionary"):
            n_class_of_generator(ONE, T + T * T)

    def test_four_term_identity(self):
        for bits in range(32):
            p = Polynomial(tuple(bits >> k & 1 for k in range(5)))
            tp = T * p
            total = n_class_combination(
                [(1, T, p), (1, p, T), (-1, ONE, tp), (-1, tp, ONE)]
            )
            assert total.is_zero()

    def test_huge_coefficient(self):
        t0 = time.perf_counter()
        got = n_class_combination([(10**9, T, ONE)])
        assert time.perf_counter() - t0 < 1
        assert got == n_class_combination([(0, T, ONE)])

    @pytest.mark.parametrize("coeff", [-1, -2, -3, -5, -(10**9) - 1])
    @pytest.mark.parametrize("p,g", [(T, ONE), (ONE, T), (ONE, T * T), (T + T * T, ONE)])
    def test_negative_coefficient(self, coeff, p, g):
        e = n_class_of_generator(p, g)
        assert n_class_combination([(coeff, p, g)]) == -n_class_combination([(-coeff, p, g)])
        assert n_class_combination([(-1, p, g)]) == -e

    def test_combination_cancels_only_matching_symbols(self):
        q = ONE + T  # N_{t,1+t} resolves to no j1 shape
        assert n_class_combination([(1, T, q), (-1, T, q)]).is_zero()
        with pytest.raises(ValueError, match="does not cancel"):
            n_class_combination([(1, T, q), (-1, T, q + T * T)])


class TestEnumerate:
    """orbit_reps and orbit_count against the brute-force switch_orbits."""

    def test_unil3_degree_one(self):
        elements, reps, fixed = switch_orbits("UNil3", 1)
        assert (len(elements), fixed, len(reps)) == (8, 4, 6)
        assert len(list(orbit_reps("UNil3", 1))) == orbit_count("UNil3", 1) == 6

    def test_unil2_degree_two(self):
        reps = list(orbit_reps("UNil2", 2))
        assert reps == [0, 0b10] and orbit_count("UNil2", 2) == 2
        assert [str(UNil2Element(bits)) for bits in reps] == ["[0]", "[1*t^1]"]

    def test_degree_zero(self):
        assert list(orbit_reps("UNil3", 0)) == [((0, 0), 0)]
        assert orbit_count("UNil3", 0) == 1

    def test_bad_inputs(self):
        for f in (lambda *a: list(orbit_reps(*a)), orbit_count):
            with pytest.raises(ValueError, match="degree cutoff"):
                f("UNil3", -1)
            with pytest.raises(ValueError, match="group must be"):
                f("UNil7", 1)

    def test_orbit_count_closed_form(self):
        for group in ("UNil2", "UNil3"):
            for d in range(6):
                assert orbit_count(group, d) == len(switch_orbits(group, d)[1])

    def test_burnside_against_brute_force(self):
        # the switch's orbits on the oracle's elements, through switch_unil3
        for d in (1, 2, 3):
            elements = switch_orbit_elements("UNil3", d)[0]
            orbits = {frozenset((e, switch_unil3(e))) for e in elements}
            fixed = sum(1 for e in elements if switch_unil3(e) == e)
            assert orbit_count("UNil3", d) == len(orbits)
            assert 2 * len(orbits) == len(elements) + fixed

    def test_reps_are_lex_least(self):
        reps = [UNil3Element(x, y) for x, y in orbit_reps("UNil3", 2)]
        assert len(reps) == 20
        for e in reps:
            assert unil_coefficient_tuple(e, 2) <= unil_coefficient_tuple(switch_unil3(e), 2)

    @pytest.mark.parametrize("group", ["UNil2", "UNil3"])
    @pytest.mark.parametrize("d", range(6))
    def test_against_orbit_oracle(self, group, d):
        reps = switch_orbit_elements(group, d)[1]
        coords = [e.arf_bits for e in reps] if group == "UNil2" else [(e.x, e.y) for e in reps]
        assert list(orbit_reps(group, d)) == coords
        assert orbit_count(group, d) == len(reps)

    @pytest.mark.parametrize("group", ["UNil2", "UNil3"])
    @pytest.mark.parametrize("d", range(6))
    def test_orbit_reps_are_enumerate_truncateds(self, group, d):
        # against the truncated enumeration verify-paper's Burnside fixture
        # walks: the least member of each switch-orbit, in coefficient order
        sw = (lambda e: e) if group == "UNil2" else switch_unil3

        def key(e):
            return unil_coefficient_tuple(e, d)

        elements = fixtures._canonical_elements(group, d)
        reps = sorted({min(e, sw(e), key=key) for e in elements}, key=key)
        coords = [e.arf_bits for e in reps] if group == "UNil2" else [(e.x, e.y) for e in reps]
        assert list(orbit_reps(group, d)) == coords

    def test_orbit_reps_builds_no_element(self, monkeypatch):
        built = []
        post_init = UNil3Element.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(UNil3Element, "__post_init__", counted)
        reps = list(orbit_reps("UNil3", 5))
        assert len(reps) == orbit_count("UNil3", 5) == 4224
        assert built == []


class TestOrderAndDivisibility:
    def test_order_against_brute_force(self):
        for e in switch_orbit_elements("UNil3", 2)[0]:
            acc = e
            n = 1
            while not acc.is_zero():
                acc = acc + e
                n += 1
            assert element_order(e) == n

    def test_multiple_of_two_against_brute_force(self):
        elements = switch_orbit_elements("UNil3", 2)[0]
        doubles = {e.doubled() for e in elements}
        for e in elements:
            assert is_multiple_of_two(e) == (e in doubles)

    def test_unil2_multiples(self):
        assert is_multiple_of_two(UNil2Element.zero())
        assert not is_multiple_of_two(UNil2Element(0b10))


class TestLiteralsAndJson:
    def test_round_trip(self):
        for e in switch_orbit_elements("UNil3", 2)[0]:
            assert parse_unil3(str(e)) == e
            assert UNil3Element.from_json_dict(e.to_json_dict()) == e

    def test_parse_examples(self):
        got = parse_unil3("j1[2*t^3+t] + j2[t]")
        assert got == J1(Polynomial((0, 1, 0, 2))) + J2(T)
        assert parse_unil3("0").is_zero()
        assert parse_unil3("j2[t^2]") == j2(0b100)

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="position 0"):
            parse_unil3("q1[t]")
        with pytest.raises(ValueError, match="position"):
            parse_unil3("j1[t] j2[t]")
        with pytest.raises(ValueError, match="unterminated"):
            parse_unil3("j1[t")

    def test_literal_forms(self):
        e = j1((0b1010, 0b10)) + j2(0b100)
        assert e.literal() == str(e) == "j1[1*t^3+3*t^1] + j2[1*t^2]"
        assert e.literal(compact=True) == "j1[t^3+3*t] + j2[t^2]"
        assert UNil2Element(0b1010).literal(compact=True) == "[t^3+t]"
        assert UNil2Element.zero().literal() == "[0]"
        assert UNil3Element.zero().literal(compact=True) == "0"

    def test_literal_reduces_on_parse(self):
        # non-canonical inner polynomials land on canonical classes
        assert parse_unil3("j1[2*t^2]") == j1((0, 0b10))
        assert parse_unil3("j1[t] + j1[t] + j1[t] + j1[t]").is_zero()


class TestAgainstDenseReference:
    """The element operations on bitmasks against dense Polynomial
    arithmetic over Z, read mod 4 and reduced by dense_versch_reduce for x
    and read mod 2 for y, over every element at cutoff 3.  Sums and
    differences are checked for every element against the generators (one
    nonzero coefficient) and for a seeded sample of the other pairs."""

    def test_operations(self):
        elements = switch_orbit_elements("UNil3", 3)[0]
        dense = {e: (Polynomial(z4_coeffs(e.x)), Polynomial(f2_coeffs(e.y))) for e in elements}

        def x_of(p):
            return dense_versch_reduce(p.coeffs)

        def y_of(p):
            return f2_bits(p.coeffs)

        for e in elements:
            x, y = dense[e]
            assert (-e).x == x_of(-x) and (-e).y == e.y
            assert e.doubled() == UNil3Element(x_of(x * 2), 0)
            assert switch_unil3(e) == UNil3Element(e.x, y_of(x + y))
            assert B_coords(e) == (y_of(x), y_of(y))
        generators = [e for e in elements if sum(bin(v).count("1") for v in (*e.x, e.y)) == 1]
        # x = t, 2t, t^2, t^3, 2t^3 and y = t, t^2, t^3, which generate the group
        assert len(generators) == 8
        pairs = [(e, f) for e in elements for f in generators]
        pairs += random.Random(409).sample([(e, f) for e in elements for f in elements], 4000)
        for e, f in pairs:
            x, y = dense[e]
            fx, fy = dense[f]
            assert e + f == UNil3Element(x_of(x + fx), y_of(y + fy))
            assert e - f == UNil3Element(x_of(x - fx), y_of(y - fy))
