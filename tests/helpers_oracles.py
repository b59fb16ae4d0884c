"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the library's reduction code: subgroups are built by
closure from explicit generators and membership is tested against the raw
sets, so the canonical-form routines are checked against something they
cannot share a bug with.
"""

from itertools import product


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


def unil_coefficient_tuple(e, max_exp):
    """An enumerated UNil element as raw coefficients on exponents
    0..max_exp: the F2 tuple for UNil_2, the x tuple then the y tuple for
    UNil_3 (the same layout switch_orbits uses)."""
    if hasattr(e, "arf_class"):
        return tuple(e.arf_class.rep.coefficient(k) for k in range(max_exp + 1))
    xs = tuple(e.x.rep.coefficient(k) for k in range(max_exp + 1))
    return xs + tuple(e.y.coefficient(k) for k in range(max_exp + 1))


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


def f2_poly_divmod(a, b):
    """Long division of bit-packed F2 polynomials, written out here so that
    the factorization oracle shares no kernel code with the library."""
    q = 0
    while a.bit_length() >= b.bit_length():
        shift = a.bit_length() - b.bit_length()
        q |= 1 << shift
        a ^= b << shift
    return q, a


def trial_division_factor(f):
    """Monic irreducible factorization of a nonzero bit-packed F2
    polynomial, as a sorted tuple of (pi, mult): divide by every
    polynomial of degree >= 1 in increasing order while it divides, up to
    half the degree of what is left.  Exponential in the degree of the
    second-largest factor, so for small f only."""
    out = []
    c = 2
    while f.bit_length() > 1:
        if 2 * (c.bit_length() - 1) > f.bit_length() - 1:
            out.append((f, 1))
            break
        m = 0
        q, r = f2_poly_divmod(f, c)
        while r == 0:
            f, m = q, m + 1
            q, r = f2_poly_divmod(f, c)
        if m:
            out.append((c, m))
        c += 1
    return tuple(sorted(out))


def lagrangian_candidates_by_eval_bq(form, pivots, bound):
    """Reference for linking._lagrangian_candidates: for every pivot value
    tuple, build each row's full product of slot values and keep the rows
    with eval_bq(form, row, row) giving q = 0, then yield the product of
    the kept rows.  No tables, no incremental q and no reuse of row lists
    between pivot value tuples."""
    from unilcalc.linking import eval_bq

    k = form.rank
    r = len(pivots)
    free_space = range(1 << (bound + 1))
    for pvals in product(range(1, 1 << (bound + 1)), repeat=r):
        deg_of = {pivots[i]: pvals[i].bit_length() - 1 for i in range(r)}
        per_row = []
        for i in range(r):
            slots = []
            for c in range(pivots[i] + 1, k):
                slots.append(range(1 << deg_of[c]) if c in deg_of else free_space)
            rows = []
            for vals in product(*slots):
                row = (0,) * pivots[i] + (pvals[i],) + vals
                if eval_bq(form, row, row)[1] == (0, 0):
                    rows.append(row)
            if not rows:
                break
            per_row.append(rows)
        else:
            yield from product(*per_row)
