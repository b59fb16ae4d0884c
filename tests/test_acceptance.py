"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single
``[criterion N] PASS/FAIL`` line with its wall time (run with ``-s`` to see
the lines as they appear).  Every comparison is exact: the tolerances here
are all zero, and runtimes are printed for the record but never asserted.
"""

import time
from contextlib import contextmanager

from tests.helpers_oracles import (
    all_z4_vectors,
    idem_relation_subgroup,
    switch_orbit_elements,
    switch_orbits,
    versch_relation_subgroup,
    written_rows,
    z4_coeffs,
    z4_pair,
)
from unilcalc.classify import enumerate_J, structure_set_P
from unilcalc.forms import (
    generator_switch_chain,
    resolution_switch_chain,
    standard_resolution,
    verify_chain,
)
from unilcalc.fixtures import _fx_resolution_chain, make_N, witt_four_term_instance
from unilcalc.lagrangian import find_lagrangian, sublagrangian_reduce
from unilcalc.linking import arf_even, is_even, resolution_to_linking
from unilcalc.polynomials import Polynomial, idem_reduce, render, versch_reduce
from unilcalc.unil import (
    B_coords,
    j1,
    j2,
    n_class_combination,
    orbit_count,
    pi_map,
    switch_unil3,
)

T = Polynomial.t()
ONE = Polynomial.one()


@contextmanager
def criterion(num, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] FAIL ({time.perf_counter() - t0:.2f} s) {label}")
        raise
    print(f"\n[criterion {num}] PASS ({time.perf_counter() - t0:.2f} s) {label}")


def bit_polys(degree):
    for bits in range(1 << (degree + 1)):
        yield Polynomial(tuple(bits >> k & 1 for k in range(degree + 1)))


def test_criterion_1_generator_switch_chains():
    with criterion(1, "switch chain on the rank-1 generator forms, deg <= 6"):
        for p in bit_polys(6):
            failure = verify_chain(*generator_switch_chain(p))
            assert failure is None, f"p={p}: {failure}"


def test_criterion_2_resolution_switch_chains():
    with criterion(2, "switch chain on the induced resolutions, deg <= 4"):
        results = []
        for p in bit_polys(4):
            for g in bit_polys(4):
                failure = verify_chain(*resolution_switch_chain(p, g))
                assert failure is None, f"p={p} g={g}: {failure}"
                results.append((f"p={render(p, compact=True)} g={render(g, compact=True)}", True, None))
        # verify-paper's sweep runs only the monomial chains, yet reports the same
        assert list(_fx_resolution_chain(4, False)) == results


def test_criterion_3_four_term_witt_identity():
    with criterion(3, "sublagrangian reduction + Arf + lagrangian witness"):
        for p in bit_polys(5):
            G, S = witt_four_term_instance(p)
            red = sublagrangian_reduce(G, S)
            assert red.rank == 4, f"p={p}: reduced rank {red.rank}"
            assert is_even(red), f"p={p}: reduction is not even"
            arf = arf_even(red)
            assert arf == 0, f"p={p}: arf = {render(arf)}"
        for p in bit_polys(2):
            G, S = witt_four_term_instance(p)
            red = sublagrangian_reduce(G, S)
            L = find_lagrangian(red, 3)
            assert L is not None, f"p={p}: no lagrangian within degree bound 3"
            # independent confirmation: a lagrangian reduces the form to rank 0
            assert sublagrangian_reduce(red, L).rank == 0


def test_criterion_4_switch_map_laws():
    with criterion(4, "switch involution laws, exhaustive at cutoff 3"):
        elements = switch_orbit_elements("UNil3", 3)[0]
        switched = {e: switch_unil3(e) for e in elements}
        for e in elements:
            assert switch_unil3(switched[e]) == e
            assert switched[e.doubled()] == e.doubled()
            assert (switched[e] == e) == (pi_map(e.x) == 0)
        for a in elements:
            for b in elements:
                assert switch_unil3(a + b) == switched[a] + switched[b]
        moved_order_two = [
            e for e in elements if not e.is_zero() and (e + e).is_zero() and switched[e] != e
        ]
        assert moved_order_two, "no order-2 element is moved by the switch"


def test_criterion_5_B_coordinates_conjugate_switch():
    with criterion(5, "B(sw e) = (b1, b1 + b2), exhaustive at cutoff 3"):
        for e in switch_orbit_elements("UNil3", 3)[0]:
            b1, b2 = B_coords(e)
            assert B_coords(switch_unil3(e)) == (b1, b1 ^ b2)


def test_criterion_6_dictionary_consistency():
    with criterion(6, "generator dictionary + four-term cancellation, deg <= 5"):
        assert n_class_combination([(1, T, ONE)]) == j1(T.mod4())
        assert n_class_combination([(1, ONE, T)]) == j1(T.mod4()) + j2(T.mod4()[0])
        for p in bit_polys(5):
            tp = T * p
            total = n_class_combination([(1, T, p), (1, p, T), (-1, ONE, tp), (-1, tp, ONE)])
            assert total.is_zero(), f"p={p}: combination = {total}"


def test_criterion_7_resolution_dictionary():
    with criterion(7, "resolution_to_linking inverts the standard resolution, deg <= 3"):
        for p in bit_polys(3):
            for g in bit_polys(3):
                tp = T * p
                assert resolution_to_linking(standard_resolution(tp, g)) == make_N(tp, g)


def test_criterion_8_classification_counts():
    with criterion(8, "structure-set and pair-table counts, Burnside at cutoffs <= 4"):
        assert structure_set_P(4).count() == 2
        assert structure_set_P(5).count() == 4
        assert structure_set_P(6).count() == 4
        assert structure_set_P(8).count() == 8
        t41 = written_rows(enumerate_J(4, degree_cutoff=1))
        assert len(t41) == 18
        assert sum(1 for r in t41 if r.not_connected_sum) == 15
        t6 = written_rows(enumerate_J(6))
        assert len(t6) == 10
        assert sum(1 for r in t6 if r.not_connected_sum) == 0
        for group in ("UNil2", "UNil3"):
            for d in range(5):
                elements, reps, fixed = switch_orbits(group, d)
                assert 2 * orbit_count(group, d) == 2 * len(reps) == len(elements) + fixed


def test_criterion_9_quotient_normal_forms():
    with criterion(9, "relation-subgroup closure vs canonical forms, exps <= 6"):
        max_exp = 6
        rel = idem_relation_subgroup(max_exp)
        images = set()
        for bits in range(1 << (max_exp + 1)):
            rep = idem_reduce(bits)
            assert bits ^ rep in rel, f"{bits:#x} and its rep differ by a non-relation"
            for r in rel:
                assert idem_reduce(bits ^ r) == rep
            images.add(rep)
        assert len(images) * len(rel) == 1 << (max_exp + 1)

        vrel = versch_relation_subgroup(max_exp)
        n = max_exp + 1

        def vec(pair):
            cs = z4_coeffs(pair)
            return cs + (0,) * (n - len(cs))

        vimages = set()
        for v in all_z4_vectors(max_exp):
            rep = vec(versch_reduce(*z4_pair(v)))
            assert tuple((a - b) % 4 for a, b in zip(v, rep)) in vrel
            vimages.add(rep)
        for r in vrel:
            shifted = vec(versch_reduce(*z4_pair(r)))
            assert shifted == (0,) * n, f"relation {r} does not reduce to zero"
        assert len(vimages) * len(vrel) == 4 ** max_exp
