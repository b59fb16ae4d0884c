"""The verify-paper fixtures and the paper's generators they are built
from.  Each fixture is a generator taking (degree, corrupt) and yielding
(instance label, ok, failure message or None) per instance; a fixture
stops at its first failing instance.  make_N(p, g) is the rank-2 linking
form of the generator N_{p,g}, and witt_four_term_instance(p) the rank-8
form and sublagrangian of the four-term relation among them.
burnside_orbits checks the classify tables' orbit_reps and orbit_count
against _canonical_elements, which shares no code with them."""

from unilcalc.forms import (
    QuadraticFormTheta,
    generator_switch_chain,
    resolution_switch_chain,
    verify_chain,
)
from unilcalc.kernels import gf2_mul, z4_neg
from unilcalc.lagrangian import Submodule, find_lagrangian, sublagrangian_reduce
from unilcalc.linking import LinkingForm, arf_even, is_even
from unilcalc.polynomials import Polynomial, idem_reduce, render, versch_reduce
from unilcalc.unil import (
    B_coords,
    UNil2Element,
    UNil3Element,
    n_class_combination,
    orbit_count,
    orbit_reps,
    pi_map,
    switch_unil3,
)


def _n_entries(p, g):
    """b_num[0][0] and q_num of make_N(p, g)."""
    if p.coefficient(0) != 0 and g.coefficient(0) != 0:
        raise ValueError("need p(0) = 0 or g(0) = 0")
    p4 = p.mod4()
    # 2g mod 4 is g mod 2 on the hi plane
    return p4[0], (p4, (0, g.mod4()[0]))


def make_N(p, g):
    """Rank-2 generator for p, g over Z: b_num = [[p, 1], [1, 0]] mod 2,
    q_num = (p, 2g) mod 4.  Requires p(0) = 0 or g(0) = 0."""
    b00, q = _n_entries(p, g)
    return LinkingForm(2, ((b00, 1), (1, 0)), q)


def witt_four_term_instance(p):
    """The rank-8 sum (N_{t,p} + N_{p,t}) + (-(N_{1,tp} + N_{tp,1})) for p
    over Z, together with its standard sublagrangian span(v0, v1), where
    v0 = p_ev e4 + e6 + t p_od e8 and v1 = e2 + p_od e4 + p_ev e8 use the
    even/odd split p = p_ev^2 + t p_od^2 mod 2.  Reducing at this
    sublagrangian certifies [N_{t,p}] + [N_{p,t}] = [N_{1,tp}] + [N_{tp,1}].
    The rank-8 form is built block by block, as one LinkingForm."""
    t = Polynomial.t()
    one = Polynomial.one()
    tp = t * p
    b = [[0] * 8 for _ in range(8)]
    q = []
    for i, (x, y, negated) in enumerate(((t, p, False), (p, t, False), (one, tp, True), (tp, one, True))):
        b00, q_block = _n_entries(x, y)
        b[2 * i][2 * i] = b00
        b[2 * i][2 * i + 1] = b[2 * i + 1][2 * i] = 1
        q.extend((z4_neg(*c) for c in q_block) if negated else q_block)
    G = LinkingForm(8, tuple(map(tuple, b)), tuple(q))
    # p_ev takes the even-exponent coefficients of p mod 2, p_od the odd ones
    pe = sum((c & 1) << k for k, c in enumerate(p.coeffs[0::2]))
    po = sum((c & 1) << k for k, c in enumerate(p.coeffs[1::2]))
    v0 = (0, 0, 0, pe, 0, 1, 0, gf2_mul(2, po))  # t*p_od
    v1 = (0, 1, 0, po, 0, 0, 0, pe)
    return G, Submodule.from_generators((v0, v1), 8)


def _bit_polys(degree):
    for bits in range(1 << (degree + 1)):
        yield Polynomial(tuple(bits >> k & 1 for k in range(degree + 1)))


def _fx_generator_chain(degree, corrupt):
    for i, p in enumerate(_bit_polys(degree)):
        start, P, mid, end = generator_switch_chain(p)
        if corrupt and i == 0:
            theta = tuple(
                tuple(-c if (r, s) == (0, 1) else c for s, c in enumerate(row))
                for r, row in enumerate(start.theta)
            )
            start = QuadraticFormTheta(theta, start.epsilon)
        failure = verify_chain(start, P, mid, end)
        yield f"p={render(p, compact=True)}", failure is None, failure


def _fx_resolution_chain(degree, _corrupt):
    """Every pair (p, g) of degree at most n = min(degree, 4) is an
    instance, 4^(n+1) of them, 1,024 at degree 4.  verify_chain runs only
    on chain(p, 0) and chain(0, g), 2 * 2^(n+1) - 1 distinct chains, since
    chain(0, 0) is both.

    Lemma: if chain(p, 0), chain(0, g) and chain(0, 0) pass, so does
    chain(p, g).  d = 2I and P = diag(b, a) are constant.  The base change
    relabels each entry and the switch is a ring automorphism applied entry
    by entry, so both are additive.  For a fixed d the resolution identity
    psi1 + psi1^* + d*psi0 = 0 is linear and homogeneous in (psi0, psi1),
    and so are _res_diff's comparisons of d and psi0.  In every record,
    psi1 = -psi0, psi0[0][0] is linear in p, psi0[1][1] is linear in g and
    the off-diagonals are constant, so every state of chain(p, g) is
    state(p, 0) + state(0, g) - state(0, 0), and a linear check that holds
    on those three holds on it.

    The chains run in sweep order, chain(0, g) in the p = 0 row and
    chain(p, 0) at the start of each later row, so the first pair (p, g)
    for which chain(p, 0) or chain(0, g) fails is the pair of that failing
    chain itself, and its label and message are those of a sweep of full
    chains.

    The cap at degree 4 stays because the printed count is part of the
    output."""
    polys = list(_bit_polys(min(degree, 4)))
    labels = [render(p, compact=True) for p in polys]
    # polys[0] is the zero polynomial, so g_failures[0] is chain(0, 0)'s
    zero = polys[0]
    g_failures = [verify_chain(*resolution_switch_chain(zero, g)) for g in polys]
    for i, (p, p_label) in enumerate(zip(polys, labels)):
        p_failure = verify_chain(*resolution_switch_chain(p, zero)) if i else g_failures[0]
        for g_label, g_failure in zip(labels, g_failures):
            failure = p_failure or g_failure
            yield f"p={p_label} g={g_label}", failure is None, failure
            if failure is not None:
                return


def _fx_sublagrangian(degree, _corrupt):
    for p in _bit_polys(degree):
        label = f"p={render(p, compact=True)}"
        G, S = witt_four_term_instance(p)
        try:
            red = sublagrangian_reduce(G, S)
        except ValueError as exc:
            yield label, False, str(exc)
            return
        if red.rank != 4 or not is_even(red):
            yield label, False, f"reduction has rank {red.rank}, even={is_even(red)}"
            return
        bits = arf_even(red)
        yield label, bits == 0, None if bits == 0 else f"arf = {render(bits)}, expected 0"


def _fx_lagrangian_search(degree, _corrupt):
    for p in _bit_polys(min(degree, 2)):
        G, S = witt_four_term_instance(p)
        red = sublagrangian_reduce(G, S)
        L = find_lagrangian(red, 3)
        ok = L is not None
        yield f"p={render(p, compact=True)}", ok, None if ok else "no lagrangian within degree bound 3"


def _canonical_elements(group, d):
    """Every canonical element of group supported on exponents <= d, by
    brute force: the distinct images of every coefficient choice on t, ...,
    t^d under idem_reduce (UNil_2) or versch_reduce (UNil_3's x), which
    define the canonical representatives, in coordinate order."""
    f2 = [bits << 1 for bits in range(1 << d)]
    if group == "UNil2":
        return [UNil2Element(a) for a in sorted(set(map(idem_reduce, f2)))]
    xs = sorted({versch_reduce(lo, hi) for lo in f2 for hi in f2})
    return [UNil3Element(x, y) for x in xs for y in f2]


def _fx_switch_laws(_degree, _corrupt):
    for e in _canonical_elements("UNil3", 3):
        label = str(e)
        se = switch_unil3(e)
        if switch_unil3(se) != e:
            yield label, False, "sw applied twice is not the identity"
            return
        b1, b2 = B_coords(e)
        if B_coords(se) != (b1, b1 ^ b2):
            got = ", ".join(map(render, B_coords(se)))
            yield label, False, f"B(sw e) = ({got}), expected ({render(b1)}, {render(b1 ^ b2)})"
            return
        if switch_unil3(e.doubled()) != e.doubled():
            yield label, False, "sw moved a multiple of two"
            return
        if (se == e) != (pi_map(e.x) == 0):
            yield label, False, "fixed-point criterion pi(x) = 0 violated"
            return
        yield label, True, None


def _fx_burnside(_degree, _corrupt):
    """At cutoffs d <= 4, orbit_reps gives one representative in each
    switch-orbit of _canonical_elements, and orbit_count of them."""
    for group in ("UNil2", "UNil3"):
        for d in range(5):
            elements = _canonical_elements(group, d)
            # the coordinates orbit_reps yields for an element, to its orbit
            if group == "UNil2":  # the switch is the identity
                orbit_of = {e.arf_bits: e for e in elements}
            else:
                orbit_of = {(e.x, e.y): frozenset((e, switch_unil3(e))) for e in elements}
            reps = list(orbit_reps(group, d))
            hit = len({orbit_of.get(c) for c in reps} - {None})
            count, orbits = orbit_count(group, d), len(set(orbit_of.values()))
            ok = len(reps) == hit == count == orbits
            yield f"{group} d={d}", ok, None if ok else (
                f"orbit_reps gives {len(reps)} representatives of {hit} orbits; "
                f"orbit count {count} vs brute force {orbits}"
            )
            if not ok:
                return


def _fx_dictionary(degree, _corrupt):
    t, one = Polynomial.t(), Polynomial.one()
    for p in _bit_polys(degree):
        tp = t * p
        total = n_class_combination([(1, t, p), (1, p, t), (-1, one, tp), (-1, tp, one)])
        ok = total.is_zero()
        yield f"p={render(p, compact=True)}", ok, None if ok else f"four-term combination = {total}"


# (name, fixture) in the order verify-paper runs and reports them
FIXTURES = (
    ("generator_switch_chain", _fx_generator_chain),
    ("resolution_switch_chain", _fx_resolution_chain),
    ("four_term_sublagrangian", _fx_sublagrangian),
    ("lagrangian_search", _fx_lagrangian_search),
    ("switch_and_B_laws", _fx_switch_laws),
    ("burnside_orbits", _fx_burnside),
    ("verschiebung_dictionary", _fx_dictionary),
)
