"""Seeded input generator for the unilcalc benchmark.

Standard library only, and it never imports unilcalc: the inputs and the
answers they are checked against come from this file, so a change to the
program under test cannot change its own inputs.  Polynomials over F2 are
int bitmasks (bit k is the coefficient of t^k); a Z4[t] value is a pair
(lo, hi) with coefficient lo_k + 2*hi_k.
"""

import json
import random


def gf2_mul(a, b):
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return r


def spread(a):
    """a(t^2) over F2, i.e. the square of a."""
    r = 0
    k = 0
    while a:
        if a & 1:
            r |= 1 << (2 * k)
        a >>= 1
        k += 1
    return r


def idem_class(bits):
    """Canonical representative of bits in F2[t]/{f^2 - f}: rewrite
    t^(2k) -> t^k from the top down, leaving exponent 0 and odd exponents."""
    for e in range(bits.bit_length() - 1, 1, -1):
        if e % 2 == 0 and bits >> e & 1:
            bits ^= (1 << e) | (1 << (e // 2))
    return bits


def canonical_f2(bits):
    """The program's canonical text for an F2 polynomial, e.g. 1*t^3+1*t^0."""
    if not bits:
        return "0"
    return "+".join(f"1*t^{k}" for k in range(bits.bit_length() - 1, -1, -1) if bits >> k & 1)


def _term(c, k, rng):
    """Text of c*t^k with a random choice among the accepted spellings."""
    if k == 0:
        return str(c)
    power = "t" if k == 1 and rng.random() < 0.5 else f"t^{k}"
    if c == 1 and rng.random() < 0.6:
        return power
    return f"{c}*{power}"


def render(coeffs, modulus, rng):
    """A random spelling of the polynomial sum(coeffs[k] t^k) over Z/modulus:
    shuffled term order, coefficients shifted by random multiples of the
    modulus, random shorthand.  parse_poly maps every spelling to the same
    polynomial."""
    terms = [(c, k) for k, c in enumerate(coeffs) if c % modulus]
    if not terms:
        return rng.choice(("0", f"{modulus}*t^{rng.randrange(4)}"))
    rng.shuffle(terms)
    out = ""
    for c, k in terms:
        c = c % modulus + modulus * rng.choice((0, 0, 0, 1, -1))
        body = _term(abs(c), k, rng)
        if c < 0:
            out += f" - {body}" if out else f"-{body}"
        else:
            out += f" + {body}" if out else body
    return out


def render_f2(bits, rng):
    return render([bits >> k & 1 for k in range(bits.bit_length())], 2, rng)


def render_z4(pair, rng):
    lo, hi = pair
    n = max(lo.bit_length(), hi.bit_length())
    return render([(lo >> k & 1) + 2 * (hi >> k & 1) for k in range(n)], 4, rng)


def form_json(b, q, rng):
    """A linking form {rank, b_num, q_num} in JSON object form."""
    d = {
        "b_num": [[render_f2(x, rng) for x in row] for row in b],
        "q_num": [render_z4(c, rng) for c in q],
        "rank": len(q),
    }
    keys = list(d)
    rng.shuffle(keys)
    return {k: d[k] for k in keys}


def dump(obj):
    return json.dumps(obj, indent=1) + "\n"


# ---------------------------------------------------------------------------
# witt: the rank-8 four-term instances


def _z4_neg(pair):
    lo, hi = pair
    return lo, hi ^ lo


def four_term_instance(p):
    """(b, q, v0, v1) for the rank-8 sum N_{t,p} + N_{p,t} - N_{1,tp} -
    N_{tp,1} of rank-2 generators N_{p,g}: b = [[p, 1], [1, 0]] mod 2,
    q = (p mod 4, 2g mod 4), negation acting on q only.  The standard
    sublagrangian is span(v0, v1) with v0 = p_ev e4 + e6 + t p_od e8 and
    v1 = e2 + p_od e4 + p_ev e8, where p = p_ev^2 + t p_od^2 mod 2.  p has
    0/1 coefficients, so p mod 4 is (p, 0)."""
    t = 2
    tp = gf2_mul(t, p)
    blocks = [
        (t, (t, 0), (0, p)),
        (p, (p, 0), (0, t)),
        (1, _z4_neg((1, 0)), _z4_neg((0, tp))),
        (tp, _z4_neg((tp, 0)), _z4_neg((0, 1))),
    ]
    b = [[0] * 8 for _ in range(8)]
    q = []
    for i, (diag, q0, q1) in enumerate(blocks):
        b[2 * i][2 * i] = diag
        b[2 * i][2 * i + 1] = b[2 * i + 1][2 * i] = 1
        q += [q0, q1]
    pe = sum(1 << (k // 2) for k in range(0, p.bit_length(), 2) if p >> k & 1)
    po = sum(1 << (k // 2) for k in range(1, p.bit_length(), 2) if p >> k & 1)
    v0 = [0, 0, 0, pe, 0, 1, 0, gf2_mul(t, po)]
    v1 = [0, 1, 0, po, 0, 0, 0, pe]
    return b, q, v0, v1


def _axpy(f, x, y):
    return [a ^ gf2_mul(f, c) for a, c in zip(y, x)]


def generators_of_span(rows, rng, degree=2):
    """A random generating set of the row span of rows: a random unimodular
    mix of the rows plus one redundant combination."""
    rows = [list(r) for r in rows]
    for _ in range(3):
        i, j = rng.sample(range(len(rows)), 2)
        rows[i] = _axpy(rng.randrange(1, 1 << (degree + 1)), rows[j], rows[i])
    extra = [0] * len(rows[0])
    for r in rows:
        extra = _axpy(rng.randrange(1 << (degree + 1)), r, extra)
    rows.insert(rng.randrange(len(rows) + 1), extra)
    return rows


def witt_instance_json(p, rng):
    b, q, v0, v1 = four_term_instance(p)
    gens = generators_of_span([v0, v1], rng)
    doc = {
        "form": form_json(b, q, rng),
        "sublagrangian": {"generators": [[render_f2(x, rng) for x in row] for row in gens]},
    }
    if rng.random() < 0.5:
        doc = {"sublagrangian": doc["sublagrangian"], "form": doc["form"]}
    return dump(doc)


# ---------------------------------------------------------------------------
# algebra: random even forms with a known Arf class


def hyperbolic_even_form(k, qvals, base_degree, steps, rng):
    """A rank-2k even form with hyperbolic blocks [[0, 1], [1, 0]] whose
    basis pairs carry q = (2 a_i, 2 b_i), after a random unimodular base
    change P: a product of `steps` elementary moves row_i += f row_j with
    deg f <= base_degree.  Returns (b, q, P_inv); the new basis vector i is
    row i of P, and old coordinates x become x P^-1 in the new basis.

    q on the new basis comes from the quadratic law: for an even form with
    q = 2h, q(x) = 2 (sum x_i^2 h_i + sum_{i<j} x_i x_j b_ij) mod 4."""
    n = 2 * k
    H = [[0] * n for _ in range(n)]
    h = []
    for i, (a, c) in enumerate(qvals):
        H[2 * i][2 * i + 1] = H[2 * i + 1][2 * i] = 1
        h += [a, c]
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    P_inv = [row[:] for row in P]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        f = rng.randrange(1, 1 << (base_degree + 1))
        # E = I + f E_ij is its own inverse in characteristic 2:
        # P <- E P and P^-1 <- P^-1 E
        P[i] = _axpy(f, P[j], P[i])
        for row in P_inv:
            row[j] ^= gf2_mul(f, row[i])
    # b' = P H P^T; H only pairs 2m with 2m+1
    PH = [[row[j ^ 1] for j in range(n)] for row in P]
    b = [[0] * n for _ in range(n)]
    for r in range(n):
        for s in range(r, n):
            acc = 0
            for j in range(n):
                if PH[r][j] and P[s][j]:
                    acc ^= gf2_mul(PH[r][j], P[s][j])
            b[r][s] = b[s][r] = acc
    q = []
    for x in P:
        acc = 0
        for i in range(n):
            if x[i]:
                acc ^= gf2_mul(spread(x[i]), h[i])
                for j in range(i + 1, n):
                    if x[j] and H[i][j]:
                        acc ^= gf2_mul(x[i], x[j])
        q.append((0, acc))
    return b, q, P_inv


def arf_expected(qvals):
    acc = 0
    for a, c in qvals:
        acc ^= gf2_mul(a, c)
    return canonical_f2(idem_class(acc))
