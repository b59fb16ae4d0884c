"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the library's reduction code: subgroups are built by
closure from explicit generators and membership is tested against the raw
sets, so the canonical-form routines are checked against something they
cannot share a bug with.
"""

import csv
import io
import json
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product


def f2_span(gens):
    """Subgroup of (F2-vector) ints spanned by gens, as a set."""
    span = {0}
    for g in gens:
        span |= {x ^ g for x in span}
    return span


def idem_relation_subgroup(max_exp):
    """{f^2 - f} closure inside F2-polys supported on exponents <= max_exp."""
    gens = set()
    for fbits in range(1 << (max_exp // 2 + 1)):
        sq = 0
        b = fbits
        i = 0
        while b:  # f^2 over F2 is f(t^2)
            if b & 1:
                sq |= 1 << (2 * i)
            b >>= 1
            i += 1
        gens.add(sq ^ fbits)
    return f2_span(gens)


def z4_vec_add(u, v):
    return tuple((a + b) % 4 for a, b in zip(u, v))


def versch_relation_subgroup(max_exp):
    """{2p(t^2) - 2p(t)} closure on Z4 coefficient tuples (exponents
    0..max_exp, constant slot always zero)."""
    gens = []
    for k in range(1, max_exp // 2 + 1):
        v = [0] * (max_exp + 1)
        v[2 * k] = 2
        v[k] = (v[k] + 2) % 4  # -2 == 2 mod 4
        gens.append(tuple(v))
    span = {tuple([0] * (max_exp + 1))}
    for g in gens:
        span |= {z4_vec_add(x, g) for x in span}
    return span


def all_z4_vectors(max_exp):
    """Every Z4 coefficient tuple with zero constant term, exponents <= max_exp."""
    for tail in product(range(4), repeat=max_exp):
        yield (0,) + tail


def f2_bits(cs):
    """The F2[t] bitmask of integer coefficients cs (cs[k] of t^k), read mod 2."""
    return sum((c % 2) << k for k, c in enumerate(cs))


def z4_pair(cs):
    """The Z4[t] (lo, hi) pair of integer coefficients cs, read mod 4."""
    return f2_bits(cs), f2_bits(c % 4 // 2 for c in cs)


def f2_coeffs(bits):
    """The 0/1 coefficients of an F2[t] bitmask, constant term first."""
    return tuple(bits >> k & 1 for k in range(bits.bit_length()))


def z4_coeffs(pair):
    """The 0..3 coefficients of a Z4[t] (lo, hi) pair, constant term first."""
    lo, hi = pair
    return tuple((lo >> k & 1) + 2 * (hi >> k & 1) for k in range(max(lo.bit_length(), hi.bit_length())))


def dense_idem_reduce(cs):
    """Reference for polynomials.idem_reduce on integer coefficients cs read
    mod 2: the rewrite t^(2k) -> t^k on the coefficient list, from the top
    down.  Returns the F2[t] bitmask of the result."""
    cs = [c % 2 for c in cs]
    for e in range(len(cs) - 1, 1, -1):
        if e % 2 == 0 and cs[e]:
            cs[e] = 0
            cs[e // 2] ^= 1
    return f2_bits(cs)


def dense_versch_reduce(cs):
    """Reference for polynomials.versch_reduce on integer coefficients cs
    read mod 4: wherever an even exponent 2k has coefficient 2 or 3,
    subtract 2(t^(2k) - t^k), from the top down.  Returns the Z4[t] pair of
    the result."""
    cs = [c % 4 for c in cs]
    if cs and cs[0]:
        raise ValueError("nonzero constant term")
    for e in range(len(cs) - 1, 1, -1):
        if e % 2 == 0 and cs[e] >= 2:
            cs[e] -= 2
            cs[e // 2] = (cs[e // 2] + 2) % 4
    return z4_pair(cs)


def unil_coefficient_tuple(e, max_exp):
    """An enumerated UNil element as raw coefficients on exponents
    0..max_exp: the F2 tuple for UNil_2, the x tuple then the y tuple for
    UNil_3 (the same layout switch_orbits uses)."""
    if hasattr(e, "arf_bits"):
        return tuple(e.arf_bits >> k & 1 for k in range(max_exp + 1))
    lo, hi = e.x
    xs = tuple((lo >> k & 1) + 2 * (hi >> k & 1) for k in range(max_exp + 1))
    return xs + tuple(e.y >> k & 1 for k in range(max_exp + 1))


def switch_orbits(group, max_exp):
    """Brute-force switch orbits on UNil elements supported on exponents
    <= max_exp, on raw coefficient tuples.

    Canonical coordinates: UNil_2 has 0/1 coefficients at odd exponents
    only; UNil_3 has x with Z4 coefficients at odd exponents and 0/1 at
    even ones, y with 0/1 anywhere, constant terms zero.  The switch is the
    identity on UNil_2 and (x, y) -> (x, y + (x mod 2)) on UNil_3.  The
    elements are sorted by their tuple and each orbit {e, sw(e)} is
    deduplicated, keeping its least member.  Returns (elements, reps,
    fixed count).
    """
    d = max_exp
    if group == "UNil2":
        elements = [
            (0,) + tail
            for tail in product(*((0, 1) if k % 2 else (0,) for k in range(1, d + 1)))
        ]

        def sw(e):
            return e

    else:
        xs = product(*(range(4) if k % 2 else range(2) for k in range(1, d + 1)))
        ys = list(product((0, 1), repeat=d))
        elements = [(0,) + x + (0,) + y for x in xs for y in ys]

        def sw(e):
            x, y = e[: d + 1], e[d + 1 :]
            return x + tuple((a + b) % 2 for a, b in zip(x, y))

    elements = sorted(set(elements))
    seen = set()
    reps = []
    for e in elements:
        if e not in seen:
            reps.append(e)
            seen.update((e, sw(e)))
    fixed = sum(1 for e in elements if sw(e) == e)
    return elements, reps, fixed


def switch_orbit_elements(group, max_exp):
    """switch_orbits(group, max_exp) with each coefficient tuple built as a
    UNil2Element or UNil3Element: (elements, reps), in its order.  The
    tuples are canonical coordinates, so the constructors accept them."""
    from unilcalc.unil import UNil2Element, UNil3Element

    n = max_exp + 1

    def element(cs):
        if group == "UNil2":
            return UNil2Element(f2_bits(cs))
        return UNil3Element(z4_pair(cs[:n]), f2_bits(cs[n:]))

    elements, reps, _fixed = switch_orbits(group, max_exp)
    return [element(cs) for cs in elements], [element(cs) for cs in reps]


def f2_mul(a, b):
    """Shift-and-add product of bit-packed F2 polynomials, written out here
    so that the oracles share no kernel code with the library."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def elementary_base_change(b, h, steps, degree, rng):
    """An even form b (symmetric, zero diagonal) with q(e_i) = 2 h_i, after
    `steps` random moves e_i -> e_i + f e_j with deg f <= degree, as the new
    (b, h).  The move is b -> E b E^T with E = I + f E_ij, so row i and then
    column i gain f times row and column j, and the quadratic law gives
    h_i -> h_i + f^2 h_j + f b_ij."""
    b = [list(row) for row in b]
    h = list(h)
    for _ in range(steps):
        i, j = rng.sample(range(len(h)), 2)
        f = rng.randrange(1, 1 << (degree + 1))
        h[i] ^= f2_mul(f2_mul(f, f), h[j]) ^ f2_mul(f, b[i][j])
        b[i] = [x ^ f2_mul(f, y) for x, y in zip(b[i], b[j])]
        for row in b:
            row[i] ^= f2_mul(f, row[j])
    return tuple(tuple(row) for row in b), tuple(h)


def even_form_with_known_arf(qvals, steps, degree, rng):
    """(b_num, q_num, Arf class bits) of the sum of hyperbolic planes
    [[0, 1], [1, 0]] with q = (2 a_i, 2 b_i) on their basis pairs, for
    qvals = ((a_1, b_1), ...), after elementary_base_change.  The class is
    that of sum a_i b_i in F2[t]/{g^2 - g}, canonical after the rewrite
    t^(2m) -> t^m from the top down."""
    n = 2 * len(qvals)
    b = [[int(j == (i ^ 1)) for j in range(n)] for i in range(n)]
    b, h = elementary_base_change(b, [x for pair in qvals for x in pair], steps, degree, rng)
    arf = 0
    for a, c in qvals:
        arf ^= f2_mul(a, c)
    for e in range(arf.bit_length() - 1, 1, -1):
        if e % 2 == 0 and arf >> e & 1:
            arf ^= (1 << e) | (1 << (e // 2))
    return b, tuple((0, x) for x in h), arf


def lagrangian_candidates_by_eval_bq(form, pivots, bound):
    """Reference for lagrangian._lagrangian_candidates: for every pivot value
    tuple, build each row's full product of slot values and keep the rows
    with eval_bq(form, row, row) giving q = 0, then yield the product of
    the kept rows.  No tables and no incremental q.  A row list is a pure
    function of its pivot slot, its pivot value and its slots' value
    ranges, so it is built once per such key and reused under that exact
    key only."""
    from unilcalc.linking import eval_bq

    k = form.rank
    r = len(pivots)
    free_space = range(1 << (bound + 1))
    row_lists = {}
    for pvals in product(range(1, 1 << (bound + 1)), repeat=r):
        deg_of = {pivots[i]: pvals[i].bit_length() - 1 for i in range(r)}
        per_row = []
        for i in range(r):
            slots = tuple(
                range(1 << deg_of[c]) if c in deg_of else free_space
                for c in range(pivots[i] + 1, k)
            )
            key = (pivots[i], pvals[i], slots)
            if key not in row_lists:
                head = (0,) * pivots[i] + (pvals[i],)
                row_lists[key] = [
                    head + vals
                    for vals in product(*slots)
                    if eval_bq(form, head + vals, head + vals)[1] == (0, 0)
                ]
            rows = row_lists[key]
            if not rows:
                break
            per_row.append(rows)
        else:
            yield from product(*per_row)


class ReferenceRow:
    """A classification-table row as an object holding its coordinates and
    its theta element, as tables were built before rows were streamed."""

    def __init__(self, pair, theta, not_connected_sum, identified_with=""):
        self.pair = pair
        self.theta = theta
        self.not_connected_sum = not_connected_sum
        self.identified_with = identified_with

    def theta_str(self):
        if self.theta is None:
            return "0"
        return self.theta.literal(compact=True)


def bar_I(n, z_bound=0):
    """Count and representatives of the unoriented quotient of I_n.

    Negation acts trivially on the Z_2 summands, so only the Z
    coordinate (when present) is folded by z ~ -z.
    """
    from unilcalc.classify import structure_set_P, structure_set_elements

    desc = structure_set_P(n)
    elements = structure_set_elements(desc, z_bound)
    reps = tuple(e for e in elements if not desc.has_Z or e[-1] >= 0)
    return len(reps), reps


def reference_rows(n, degree_cutoff, z_bound, bar=False):
    """Every row of classify n --degree-cutoff d --z-bound B [--bar] in one
    list: pairs of coordinates crossed with switch_orbits' representatives, then,
    for --bar at n = 3 mod 4, folded with a dict from (pair, theta text) to
    the pair's coordinate texts and a set of the keys already seen."""
    from unilcalc.classify import coord_str, relevant_unil, structure_set_P, structure_set_elements

    desc = structure_set_P(n)
    group = relevant_unil(n)
    thetas = (None,) if group == "Zero" else switch_orbit_elements(group, degree_cutoff)[1]
    rows = [
        ReferenceRow(pair, theta, theta is not None and not theta.is_zero())
        for pair in combinations_with_replacement(structure_set_elements(desc, z_bound), 2)
        for theta in thetas
    ]
    if not bar or n % 4 != 3:
        return rows

    def negate(c):
        return c[:-1] + (-c[-1],)

    by_key = {(r.pair, r.theta_str()): tuple(coord_str(desc, c) for c in r.pair) for r in rows}
    out = []
    seen = set()
    for r in rows:
        key = (r.pair, r.theta_str())
        if key in seen:
            continue
        neg_key = (tuple(sorted(negate(c) for c in r.pair)), key[1])
        seen.add(key)
        if neg_key == key:
            out.append(r)
            continue
        seen.add(neg_key)
        out.append(ReferenceRow(r.pair, r.theta, r.not_connected_sum, ";".join(by_key[neg_key])))
    return out


WrittenRow = namedtuple(
    "WrittenRow", ("n", "pair_coord_1", "pair_coord_2", "theta", "not_connected_sum", "identified_with")
)


def written_rows(table):
    """The rows of a classify table as the command writes them: the text
    of table_to_csv read back by csv.reader, with not_connected_sum as 0 or
    1 and the other fields as text.  The header must name the fields."""
    from unilcalc.classify import table_to_csv

    header, *rows = csv.reader(io.StringIO("".join(table_to_csv(table))))
    if tuple(header) != WrittenRow._fields:
        raise ValueError(f"unexpected CSV header {header}")
    return [WrittenRow(*row[:4], int(row[4]), row[5]) for row in rows]


def _reference_dicts(n, rows):
    from unilcalc.classify import coord_str, structure_set_P

    desc = structure_set_P(n)
    for r in rows:
        yield {
            "n": n,
            "pair_coord_1": coord_str(desc, r.pair[0]),
            "pair_coord_2": coord_str(desc, r.pair[1]),
            "theta": r.theta_str(),
            "not_connected_sum": r.not_connected_sum,
            "identified_with": r.identified_with,
        }


def reference_csv(n, degree_cutoff, z_bound, bar=False):
    """The CSV text of classify, from csv.writer over reference_rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = ("n", "pair_coord_1", "pair_coord_2", "theta", "not_connected_sum", "identified_with")
    writer.writerow(columns)
    for d in _reference_dicts(n, reference_rows(n, degree_cutoff, z_bound, bar)):
        writer.writerow([int(d[c]) if c == "not_connected_sum" else d[c] for c in columns])
    return buf.getvalue()


def reference_json(n, degree_cutoff, z_bound, bar=False):
    """The JSON text of classify --format json, from json.dumps with
    indent=2 over reference_rows."""
    doc = {
        "n": n,
        "degree_cutoff": degree_cutoff,
        "z_bound": z_bound,
        "epsilon": (-1) ** (n + 1),
        "folded": bar and n % 4 == 3,
        "rows": list(_reference_dicts(n, reference_rows(n, degree_cutoff, z_bound, bar))),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_poly(text):
    """A Polynomial over Z from text, in the grammar of parse_f2 and
    parse_z4 with the coefficients kept as integers."""
    from unilcalc.polynomials import Polynomial, _parse_terms

    coeffs = _parse_terms(text)
    return Polynomial(tuple(coeffs.get(k, 0) for k in range(max(coeffs) + 1)))


def element_order(e):
    """Additive order of a UNil element, by repeated doubling; always 1, 2
    or 4."""
    if e.is_zero():
        return 1
    d = e + e
    if d.is_zero():
        return 2
    if not (d + d).is_zero():
        raise RuntimeError(f"element {e} has additive order above 4")
    return 4


def is_multiple_of_two(e):
    """Whether e = 2f for some f.  The relations 2(t^{2k} - t^k) never
    change a coefficient's parity, so an x-class is a double exactly when
    pi(x) = 0, and the y-coordinate of any double is zero; UNil_2 has
    exponent 2, so only its zero is a double."""
    from unilcalc.unil import UNil2Element

    if isinstance(e, UNil2Element):
        return e.is_zero()
    return not (e.y | e.x[0])


def n_class_of_generator(p, g):
    """UNil_3 coordinates of the linking-form generator [N_{p,g}], which
    needs exactly one of p(0), g(0) to be 0: unil.n_class_combination of
    the one term."""
    from unilcalc.unil import n_class_combination

    if (p.coefficient(0) == 0) == (g.coefficient(0) == 0):
        raise ValueError("exactly one of p(0) = 0, g(0) = 0 is required")
    return n_class_combination([(1, p, g)])


def f2_divmod(a, b):
    """Long division of bit-packed F2 polynomials, b nonzero."""
    q = 0
    while a.bit_length() >= b.bit_length():
        sh = a.bit_length() - b.bit_length()
        q |= 1 << sh
        a ^= b << sh
    return q, a


def bareiss_det(M):
    """Reference for f2linalg.det: the fraction-free (Bareiss) elimination,
    whose step-k entries are the (k+1) x (k+1) leading minors, so each
    division by the previous pivot is exact."""
    n = len(M)
    if n == 0:
        return 1
    A = [list(row) for row in M]
    prev = 1
    for k in range(n - 1):
        if not A[k][k]:
            i0 = next((i for i in range(k + 1, n) if A[i][k]), None)
            if i0 is None:
                return 0
            A[k], A[i0] = A[i0], A[k]  # char 2, no sign to track
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = f2_mul(A[i][j], A[k][k]) ^ f2_mul(A[i][k], A[k][j])
                q, rem = f2_divmod(num, prev)
                assert not rem, "Bareiss division must be exact"
                A[i][j] = q
        prev = A[k][k]
    return A[n - 1][n - 1]


def check_sublagrangian_by_eval_bq(form, S):
    """Reference for lagrangian._check_sublagrangian: q on each generator of S,
    then b on each pair i <= j in row-major order, one eval_bq call each.
    Raises the ValueError of the first failure."""
    from unilcalc.linking import eval_bq

    for i, row in enumerate(S.basis):
        if eval_bq(form, row, row)[1] != (0, 0):
            raise ValueError(f"q does not vanish on generator {i} of S")
    for i, ri in enumerate(S.basis):
        for j in range(i, len(S.basis)):
            if eval_bq(form, ri, S.basis[j])[0]:
                raise ValueError(f"b({i},{j}) is nonzero on S: S is not isotropic")


def mat_inverse(M):
    """The inverse of a square matrix over F2[t], as the U of f2linalg.hnf:
    U*M is the Hermite form, which is the identity exactly when M is
    unimodular; otherwise ValueError."""
    from unilcalc.f2linalg import hnf, mat_identity

    H, U = hnf(M)
    if H != mat_identity(len(M)):
        raise ValueError("matrix is not unimodular over F2[t]")
    return U


def submodule_contains(big, small):
    """Whether every generator of the Submodule small reduces to zero modulo
    the Hermite basis of big."""
    from unilcalc.f2linalg import divmod_rows

    return all(not any(divmod_rows(row, big.basis)[1]) for row in small.basis)


def minors_gcd(C):
    """The gcd of the r x r minors of an r x m matrix C over F2[t], r <= m,
    each minor from bareiss_det; 0 when they all vanish.  C completes to a
    unimodular matrix exactly when this is 1."""
    g = 0
    for cols in combinations(range(len(C[0])), len(C)):
        a = bareiss_det([[row[j] for j in cols] for row in C])
        while a:
            g, a = a, f2_divmod(g, a)[1]
    return g


def sublagrangian_reduce_by_eval_bq(form, S):
    """Reference for lagrangian.sublagrangian_reduce: S is a direct summand
    of S-perp when the minors of its coordinates C in a basis T of S-perp
    have gcd 1 (minors_gcd), and then the quotient basis reps = Y * T from
    f2linalg.unimodular_completion(C) is checked to complete S to a basis of
    S-perp: the Hermite form of S and reps is T.  b and q on reps come from
    one eval_bq call per entry."""
    from unilcalc.f2linalg import divmod_rows, hermite_form, mat_mul, unimodular_completion
    from unilcalc.lagrangian import orthogonal_complement
    from unilcalc.linking import LinkingForm, eval_bq

    check_sublagrangian_by_eval_bq(form, S)
    comp = orthogonal_complement(form, S)
    if not submodule_contains(comp, S):
        raise ValueError("S is not contained in its orthogonal complement")
    T = comp.basis
    if not S.basis:
        reps = T
    else:
        C = tuple(divmod_rows(row, T)[0] for row in S.basis)
        summand = minors_gcd(C) == 1
        Y = unimodular_completion(C)
        if summand != (Y is not None):
            raise AssertionError("unimodular_completion disagrees with the gcd of the minors")
        if not summand:
            raise ValueError("S is not a direct summand of its orthogonal complement")
        reps = mat_mul(Y, T)
        if hermite_form(S.basis + reps) != T:
            raise AssertionError("S and the quotient basis are not a basis of S-perp")
    k2 = len(reps)
    b = tuple(tuple(eval_bq(form, reps[i], reps[j])[0] for j in range(k2)) for i in range(k2))
    q = tuple(eval_bq(form, reps[i], reps[i])[1] for i in range(k2))
    return LinkingForm(k2, b, q)


def symplectic_basis(b_num, q2):
    """Reference for funcfield.symplectic_q2, the same Euclid pass with the
    coordinates kept: tuples (u_i, v_i, q2(u_i), q2(v_i)), with u_i, v_i in
    the standard coordinates.  Stacked as the rows u_1, v_1, u_2, v_2, ...
    the vectors form P with P * b_num * P^T = J, the block sum of [[0, 1],
    [1, 0]], and det P = 1.  Every move is applied to the coordinates P and
    to both sides of G, and carried on q2 by the quadratic law; a row that
    ends in an entry other than 1 raises ValueError."""
    k = len(b_num)
    if any(b_num[i][i] for i in range(k)):
        raise ValueError("a symplectic basis needs a zero diagonal")
    G = [list(row) for row in b_num]
    P = [[int(i == j) for j in range(k)] for i in range(k)]
    q2 = list(q2)
    active = list(range(k))

    def move(dst, src, f):
        q2[dst] ^= f2_mul(f, f2_mul(f, q2[src]) ^ G[dst][src])
        P[dst] = [x ^ f2_mul(f, y) for x, y in zip(P[dst], P[src])]
        gd, gs = G[dst], G[src]
        for l in active:
            gd[l] ^= f2_mul(f, gs[l])
        for l in active:
            G[l][dst] ^= f2_mul(f, G[l][src])

    pairs = []
    while active:
        u = active[0]
        row = [l for l in active if G[u][l]]
        while len(row) > 1:
            v = min(row, key=lambda l: G[u][l].bit_length())
            for l in row:
                if l != v:
                    move(l, v, f2_divmod(G[u][l], G[u][v])[0])
            row = [l for l in active if G[u][l]]
        if not row or G[u][row[0]] != 1:
            raise ValueError("b_num is not unimodular: a pairing row is not primitive")
        v = row[0]
        for l in active:
            if l != u and G[l][v]:
                move(l, u, G[l][v])
        pairs.append((tuple(P[u]), tuple(P[v]), q2[u], q2[v]))
        active = [l for l in active if l not in (u, v)]
    return pairs


def arf_by_eval_bq(form):
    """Reference for linking.arf_even: the class of sum q2(u_i) q2(v_i) over
    the symplectic basis, with q2 = q/2 evaluated by eval_bq on the basis
    coordinates rather than carried through the moves."""
    from unilcalc.linking import eval_bq

    total = 0
    for u, v, _, _ in symplectic_basis(form.b_num, [0] * form.rank):
        total ^= f2_mul(eval_bq(form, u, u)[1][1], eval_bq(form, v, v)[1][1])
    for e in range(total.bit_length() - 1, 1, -1):
        if e % 2 == 0 and total >> e & 1:
            total ^= (1 << e) | (1 << (e // 2))
    return total


# ---------------------------------------------------------------------------
# Z[D_inf] by its action on the integers: t is x -> x + 1 and a is x -> -x.
# An affine map of Z is stored as its values (f(0), f(1)), so the group law
# is composition of maps and never the library's exponent arithmetic.

def _apply(f, x):
    return f[0] + (f[1] - f[0]) * x


def _compose(f, g):
    """The map f o g."""
    return (_apply(f, _apply(g, 0)), _apply(f, _apply(g, 1)))


def _inverse_map(f):
    # f(x) = f0 + s x with s = +-1, so f^-1(y) = s (y - f0)
    s = f[1] - f[0]
    return (-s * f[0], s * (1 - f[0]))


_T_MAP, _T_INV_MAP, _A_MAP = (1, 2), (-1, 0), (0, -1)
_HALF = Fraction(1, 2)
# the switch conjugates by x -> 1/2 - x, which exchanges a and b = ta
_SWITCH_MAP = (_HALF, -_HALF)


def group_map(k, eps):
    """The map of t^k a^eps, composed from the generators' maps."""
    f = (0, 1)
    for _ in range(abs(k)):
        f = _compose(f, _T_MAP if k > 0 else _T_INV_MAP)
    return _compose(f, _A_MAP) if eps else f


def ring_oracle(x):
    """A DihedralElement as {map: coefficient}."""
    out = {}
    for (k, eps), c in x.terms:
        f = group_map(k, eps)
        out[f] = out.get(f, 0) + c
    return {f: c for f, c in out.items() if c}


def _collect(pairs):
    out = {}
    for f, c in pairs:
        out[f] = out.get(f, 0) + c
    return {f: c for f, c in out.items() if c}


def oracle_add(X, Y):
    return _collect([*X.items(), *Y.items()])


def oracle_neg(X):
    return {f: -c for f, c in X.items()}


def oracle_mul(X, Y):
    return _collect((_compose(f, g), c * e) for f, c in X.items() for g, e in Y.items())


def oracle_bar(X):
    return _collect((_inverse_map(f), c) for f, c in X.items())


def oracle_switch(X):
    # the conjugated map takes integers to integers, so its values are ints
    return _collect(
        (tuple(int(v) for v in _compose(_SWITCH_MAP, _compose(f, _SWITCH_MAP))), c)
        for f, c in X.items()
    )


# ---------------------------------------------------------------------------
# the matrix formulas that forms computed before it worked entry by entry:
# products of whole matrices over Z[D_inf], then an entrywise comparison

def dihedral_matmul(Am, Bm):
    from unilcalc.dihedral import DihedralElement

    n, inner = len(Am), len(Bm)
    m = len(Bm[0]) if inner else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = DihedralElement.zero()
            for k in range(inner):
                acc = acc + Am[i][k] * Bm[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def dihedral_conj_t(M):
    n = len(M)
    return tuple(tuple(M[j][i].bar() for j in range(n)) for i in range(n))


def dihedral_matadd(Am, Bm):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(Am, Bm))


def dihedral_matneg(M):
    return tuple(tuple(-x for x in row) for row in M)


def resolution_identity_by_matrices(d, psi0, psi1):
    """psi1 + psi1^* == -d*psi0, from the matrices themselves."""
    return dihedral_matadd(psi1, dihedral_conj_t(psi1)) == dihedral_matneg(dihedral_matmul(d, psi0))


def is_identity_matrix(M):
    from unilcalc.dihedral import ONE, DihedralElement

    n = len(M)
    return M == tuple(tuple(ONE if i == j else DihedralElement.zero() for j in range(n)) for i in range(n))


def base_change_by_matrices(M, P, P_inv=None):
    """P* M P, or P* M (P^-1)* when the inverse P_inv is given (the rule for d)."""
    right = P if P_inv is None else dihedral_conj_t(P_inv)
    return dihedral_matmul(dihedral_conj_t(P), dihedral_matmul(M, right))


def monomial_inverse_by_oracle(P):
    """P^-1 of a monomial matrix P of units +-g: the entry u at (i, j) goes
    to (j, i) as u^-1, with g^-1 read off the inverse of g's affine map.
    The map of t^k a^eps sends 0 to k and has slope (-1)^eps."""
    from unilcalc.dihedral import DihedralElement

    n = len(P)
    inv = [[DihedralElement.zero()] * n for _ in range(n)]
    for i, row in enumerate(P):
        for j, u in enumerate(row):
            if not u.is_zero():
                ((f, c),) = ring_oracle(u).items()
                if c not in (1, -1):
                    raise ValueError(f"entry {u} is not a group-element unit")
                g = _inverse_map(f)
                inv[j][i] = DihedralElement.monomial(g[0], int(g[1] < g[0]), c)
    return tuple(tuple(row) for row in inv)


def split_terms_by_concatenation(text):
    """Reference for polynomials._split_terms: the term so far is grown one
    character at a time and re-stripped at every sign, which is quadratic
    on a run of signs but plainly states the rule.  A sign starts a new term
    when the term so far holds something besides "+", "-" and " " and does
    not end, blanks aside, in *, ^ or /."""
    out = []
    cur = ""
    cur_pos = 0
    for i, ch in enumerate(text):
        if ch in "+-" and cur.strip("+- ") != "" and not cur.rstrip().endswith(("*", "^", "/")):
            out.append((cur, cur_pos))
            cur = ch
            cur_pos = i
        else:
            cur += ch
    out.append((cur, cur_pos))
    return out


def direct_sum(forms):
    """The orthogonal sum of LinkingForms, block by block."""
    from unilcalc.linking import LinkingForm

    forms = tuple(forms)
    k = sum(f.rank for f in forms)
    b = [[0] * k for _ in range(k)]
    q = []
    off = 0
    for f in forms:
        for i in range(f.rank):
            for j in range(f.rank):
                b[off + i][off + j] = f.b_num[i][j]
        q.extend(f.q_num)
        off += f.rank
    return LinkingForm(k, tuple(tuple(row) for row in b), tuple(q))


def negate(form):
    """The form with q negated and b kept: -q_num in Z4[t], and -b = b mod 2."""
    from unilcalc.kernels import z4_neg
    from unilcalc.linking import LinkingForm

    return LinkingForm(form.rank, form.b_num, tuple(z4_neg(*c) for c in form.q_num))


def witt_four_term_instance_by_direct_sum(p):
    """Reference for fixtures.witt_four_term_instance: the four rank-2
    generators are built as forms, two of them negated, and summed by
    direct_sum, so seven LinkingForms are built and checked."""
    from unilcalc.fixtures import make_N
    from unilcalc.kernels import gf2_mul
    from unilcalc.lagrangian import Submodule
    from unilcalc.polynomials import Polynomial

    t = Polynomial.t()
    one = Polynomial.one()
    G = direct_sum(
        [
            make_N(t, p),
            make_N(p, t),
            negate(make_N(one, t * p)),
            negate(make_N(t * p, one)),
        ]
    )
    # p_ev takes the even-exponent coefficients of p mod 2, p_od the odd ones
    pe = sum((c & 1) << k for k, c in enumerate(p.coeffs[0::2]))
    po = sum((c & 1) << k for k, c in enumerate(p.coeffs[1::2]))
    v0 = (0, 0, 0, pe, 0, 1, 0, gf2_mul(2, po))  # t*p_od
    v1 = (0, 1, 0, po, 0, 0, 0, pe)
    return G, Submodule.from_generators((v0, v1), 8)
