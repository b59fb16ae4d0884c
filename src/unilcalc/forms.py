"""(+1)/(-1)-quadratic forms as theta matrices, and their 1-dimensional
resolution complexes.

A form is a square matrix theta over the coefficient ring together with a
sign epsilon.  The bilinear pairing is the derived view lam = theta +
eps*theta^* (involution-transpose), which satisfies lam^* = eps*lam; the
quadratic refinement mu is the diagonal of theta, compared modulo the
indeterminacy {v - eps*vbar}.  Two rings appear, each named by a string
tag: Z[t] with the trivial involution (ZT_RING, entries are Polynomial over
"Z") and the untwisted dihedral group ring (DINF_RING, entries are
DihedralElement).

A resolution is a triple (d, psi0, psi1) of square matrices with
psi1 + psi1^* = -d*psi0, checked on construction.  The induction map
carries Z[t] data into the dihedral ring: form entries and psi entries
pick up a right factor of a, the differential d extends coefficients only.

A chain is a sequence of steps ``("base_change", P)``, ``("switch", None)``
and ``("assert_equal", {"theta": M})`` (forms) or ``("assert_equal", {"d": ..,
"psi0": .., "psi1": ..})`` (resolutions).
"""

from __future__ import annotations

from dataclasses import dataclass

from unilcalc.dihedral import DihedralElement, _group_inv, quad_indeterminacy_equal
from unilcalc.polynomials import Polynomial

ZT_RING = "Z[t]"
DINF_RING = "Z[D_inf]"


def _conj(x):
    return x.bar() if isinstance(x, DihedralElement) else x


def _zero_like(x):
    if isinstance(x, DihedralElement):
        return DihedralElement.zero()
    return Polynomial.zero(x.ring)


def _mconj_t(M):
    n = len(M)
    return tuple(tuple(_conj(M[j][i]) for j in range(n)) for i in range(n))


def _madd(Am, Bm):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(Am, Bm))


def _mneg(M):
    return tuple(tuple(-x for x in row) for row in M)


def _msign(M, eps):
    return M if eps == 1 else _mneg(M)


def _mmul(Am, Bm):
    n, inner = len(Am), len(Bm)
    if n == 0 or inner == 0:
        return ()
    m = len(Bm[0])
    zero = _zero_like(Am[0][0])
    out = []
    for ra in Am:
        # the matrices multiplied here, such as d = 2I and P = diag(b, a),
        # are often half zeros, so only products of two nonzero entries are
        # formed
        nonzero = [(k, a) for k, a in enumerate(ra) if not a.is_zero()]
        row = []
        for j in range(m):
            acc = zero
            for k, a in nonzero:
                b = Bm[k][j]
                if not b.is_zero():
                    acc = a * b if acc is zero else acc + a * b
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_eq(Am, Bm):
    return all(x == y for ra, rb in zip(Am, Bm) for x, y in zip(ra, rb))


def _mu_entry_equal(x, y, eps):
    if isinstance(x, DihedralElement):
        return quad_indeterminacy_equal(x, y, eps)
    diff = x - y
    if eps == 1:
        return diff.is_zero()  # trivial involution: v - vbar = 0
    return all(c % 2 == 0 for c in diff.coeffs)  # v + vbar = 2v


@dataclass(frozen=True)
class QuadraticFormTheta:
    """eps-quadratic form presented by a theta matrix."""

    ring: object
    theta: tuple
    epsilon: int

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        for row in self.theta:
            if len(row) != len(self.theta):
                raise ValueError("theta must be square")

    @property
    def rank(self):
        return len(self.theta)

    def lam(self):
        return _madd(self.theta, _msign(_mconj_t(self.theta), self.epsilon))

    def mu(self):
        return tuple(self.theta[i][i] for i in range(self.rank))


@dataclass(frozen=True)
class GeneratorP:
    """The rank-2 generator form over Z[t]: lam = [[0,1],[-1,0]], mu = (p, g)."""

    p: Polynomial
    g: Polynomial

    def __post_init__(self):
        if self.p.ring != "Z" or self.g.ring != "Z":
            raise ValueError("generator parameters must be polynomials over Z")

    def form(self):
        one, zero = Polynomial.one("Z"), Polynomial.zero("Z")
        return QuadraticFormTheta(ZT_RING, ((self.p, one), (zero, self.g)), -1)


@dataclass(frozen=True)
class QuadResolution:
    """Resolution data (d, psi0, psi1); psi1 + psi1^* = -d*psi0 is enforced."""

    ring: object
    d: tuple
    psi0: tuple
    psi1: tuple
    epsilon: int

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        k = len(self.d)
        for M in (self.d, self.psi0, self.psi1):
            if len(M) != k or any(len(row) != k for row in M):
                raise ValueError("d, psi0, psi1 must be square of equal rank")
        lhs = _madd(self.psi1, _mconj_t(self.psi1))
        rhs = _mneg(_mmul(self.d, self.psi0))
        if not _mat_eq(lhs, rhs):
            raise ValueError("resolution identity psi1 + psi1* = -d*psi0 fails")

    @property
    def rank(self):
        return len(self.d)


def standard_resolution(p, g):
    """The rank-2 complex over Z[t] with d = 2I, psi0 = [[p,1],[1,2g]],
    psi1 = -psi0; resolves the linking form with parameters (p, g)."""
    if p.ring != "Z" or g.ring != "Z":
        raise ValueError("parameters must be polynomials over Z")
    one, zero, two = Polynomial.one("Z"), Polynomial.zero("Z"), Polynomial.monomial("Z", 0, 2)
    psi0 = ((p, one), (one, g * 2))
    return QuadResolution(ZT_RING, ((two, zero), (zero, two)), psi0, _mneg(psi0), 1)


def _unit_inverse(x):
    if isinstance(x, DihedralElement):
        if len(x.terms) != 1 or x.terms[0][1] not in (1, -1):
            raise ValueError(f"entry {x} is not a group-element unit")
        (k, e), c = x.terms[0]
        return DihedralElement.monomial(*_group_inv(k, e), c=c)
    if x.degree > 0 or x.coefficient(0) not in (1, -1):
        raise ValueError(f"entry {x} is not a unit in Z[t]")
    return x


def _monomial_inverse(P):
    n = len(P)
    entries = [(i, j) for i in range(n) for j in range(n) if not P[i][j].is_zero()]
    if len(entries) != n or len({i for i, _ in entries}) != n or len({j for _, j in entries}) != n:
        raise ValueError("base-change matrix is not monomial")
    zero = _zero_like(P[entries[0][0]][entries[0][1]])
    inv = [[zero] * n for _ in range(n)]
    for i, j in entries:
        inv[j][i] = _unit_inverse(P[i][j])
    return tuple(tuple(row) for row in inv)


def _identity_like(P):
    zero = _zero_like(P[0][0])
    one = (
        DihedralElement.monomial(0, 0)
        if isinstance(zero, DihedralElement)
        else Polynomial.one(zero.ring)
    )
    n = len(P)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _checked_inverse(P):
    P_inv = _monomial_inverse(P)
    eye = _identity_like(P)
    if not (_mat_eq(_mmul(P, P_inv), eye) and _mat_eq(_mmul(P_inv, P), eye)):
        raise ValueError("base-change matrix is not invertible")
    return P_inv


def base_change(x, P):
    """Congruence by P: theta -> P* theta P.  For resolutions the psi
    matrices transform the same way and d -> P* d (P^-1)*.  P must be a
    monomial matrix of units (group elements up to sign in the dihedral
    ring), which is inverted entry by entry."""
    P = tuple(tuple(row) for row in P)
    P_inv = _checked_inverse(P)
    Pc = _mconj_t(P)
    if isinstance(x, QuadraticFormTheta):
        return QuadraticFormTheta(x.ring, _mmul(Pc, _mmul(x.theta, P)), x.epsilon)
    d = _mmul(Pc, _mmul(x.d, _mconj_t(P_inv)))
    psi0 = _mmul(Pc, _mmul(x.psi0, P))
    psi1 = _mmul(Pc, _mmul(x.psi1, P))
    return QuadResolution(x.ring, d, psi0, psi1, x.epsilon)


def switch_form(x):
    """Apply the switch automorphism to every matrix entry."""
    if x.ring != DINF_RING:
        raise ValueError("switch acts on dihedral-ring data only")

    def sw(M):
        return tuple(tuple(e.switch() for e in row) for row in M)

    if isinstance(x, QuadraticFormTheta):
        return QuadraticFormTheta(x.ring, sw(x.theta), x.epsilon)
    return QuadResolution(x.ring, sw(x.d), sw(x.psi0), sw(x.psi1), x.epsilon)


def induce_F_form(form):
    """Induct a Z[t] form into the dihedral ring: each theta entry q(t)
    becomes q(t)*a."""
    if form.ring != ZT_RING:
        raise ValueError("induction starts from a Z[t] form")
    theta = tuple(
        tuple(DihedralElement.from_poly(q, a_twist=True) for q in row) for row in form.theta
    )
    return QuadraticFormTheta(DINF_RING, theta, form.epsilon)


def induce_F_resolution(c):
    """Induct a Z[t] resolution: psi entries pick up the right factor a,
    d extends coefficients without the twist."""
    if c.ring != ZT_RING:
        raise ValueError("induction starts from a Z[t] resolution")

    def carry(M, twist):
        return tuple(
            tuple(DihedralElement.from_poly(q, a_twist=twist) for q in row) for row in M
        )

    return QuadResolution(DINF_RING, carry(c.d, False), carry(c.psi0, True), carry(c.psi1, True), c.epsilon)


def direct_sum(f1, f2):
    if f1.ring != f2.ring or f1.epsilon != f2.epsilon:
        raise ValueError("direct sum needs matching ring and epsilon")
    n1, n2 = f1.rank, f2.rank
    sample = (f1.theta[0][0] if n1 else (f2.theta[0][0] if n2 else None))
    if sample is None:
        return f1
    zero = _zero_like(sample)
    theta = tuple(
        tuple((f1.theta[i][j] if i < n1 and j < n1 else zero) for j in range(n1 + n2))
        if i < n1
        else tuple((f2.theta[i - n1][j - n1] if j >= n1 else zero) for j in range(n1 + n2))
        for i in range(n1 + n2)
    )
    return QuadraticFormTheta(f1.ring, theta, f1.epsilon)


def _forms_diff(lhs, rhs):
    """None if equal as forms, else a short description of the first
    divergent entry."""
    if lhs.ring != rhs.ring or lhs.epsilon != rhs.epsilon:
        raise ValueError("forms live over different rings or signs")
    if lhs.rank != rhs.rank:
        return f"rank {lhs.rank} vs {rhs.rank}"
    la, lb = lhs.lam(), rhs.lam()
    for i in range(lhs.rank):
        for j in range(lhs.rank):
            if la[i][j] != lb[i][j]:
                return f"lambda entry ({i},{j}): {la[i][j]} vs {lb[i][j]}"
    for i, (x, y) in enumerate(zip(lhs.mu(), rhs.mu())):
        if not _mu_entry_equal(x, y, lhs.epsilon):
            return f"mu entry {i}: {x} vs {y}"
    return None


def forms_equal(lhs, rhs):
    """Equality as forms: lambda matrices identical, mu entries equal
    modulo the quadratic indeterminacy."""
    return _forms_diff(lhs, rhs) is None


def _res_diff(lhs, rhs):
    if lhs.ring != rhs.ring or lhs.epsilon != rhs.epsilon:
        raise ValueError("resolutions live over different rings or signs")
    if lhs.rank != rhs.rank:
        return f"rank {lhs.rank} vs {rhs.rank}"
    for name in ("d", "psi0"):
        A, B = getattr(lhs, name), getattr(rhs, name)
        for i in range(lhs.rank):
            for j in range(lhs.rank):
                if A[i][j] != B[i][j]:
                    return f"{name} entry ({i},{j}): {A[i][j]} vs {B[i][j]}"
    # psi1 off-diagonal is pure indeterminacy; the diagonal is defined mod {v - vbar}
    for i in range(lhs.rank):
        if not _mu_entry_equal(lhs.psi1[i][i], rhs.psi1[i][i], 1):
            return f"psi1 diagonal entry {i}: {lhs.psi1[i][i]} vs {rhs.psi1[i][i]}"
    return None


def resolutions_equal(lhs, rhs):
    return _res_diff(lhs, rhs) is None


# ---------------------------------------------------------------------------
# chains

def _build_target(state, payload):
    if isinstance(state, QuadraticFormTheta):
        if set(payload) != {"theta"}:
            raise ValueError("form target takes a single theta matrix")
        return QuadraticFormTheta(state.ring, payload["theta"], state.epsilon)
    if set(payload) != {"d", "psi0", "psi1"}:
        raise ValueError("resolution target needs d=, psi0=, psi1=")
    return QuadResolution(state.ring, payload["d"], payload["psi0"], payload["psi1"], state.epsilon)


def verify_chain(start, steps):
    """Run chain steps against a start form or resolution.  Returns None
    when every step passes, else the first failure, located by step."""
    state = start
    for n, (op, payload) in enumerate(steps, start=1):
        try:
            if op == "base_change":
                state = base_change(state, payload)
            elif op == "switch":
                state = switch_form(state)
            elif op == "assert_equal":
                target = _build_target(state, payload)
                diff = (
                    _forms_diff(state, target)
                    if isinstance(state, QuadraticFormTheta)
                    else _res_diff(state, target)
                )
                if diff is not None:
                    return f"step {n} assert_equal: {diff}"
            else:
                raise ValueError(f"unknown chain step {op!r}")
        except ValueError as exc:
            return f"step {n} {op}: {exc}"
    return None


# ---------------------------------------------------------------------------
# the two bundled chains

def _poly_times_b_on_left(p):
    # b*p(t) = sum c_k t^(1-k) a
    return DihedralElement.from_dict({(1 - k, 1): c for k, c in enumerate(p.coeffs) if c})


def _two_a_times_poly(g):
    # 2a*g(t) = sum 2 c_k t^(-k) a
    return DihedralElement.from_dict({(-k, 1): 2 * c for k, c in enumerate(g.coeffs) if c})


def generator_switch_chain(p):
    """Start form and chain steps certifying that the switch of the induced
    rank-2 generator with parameters (tp, 1) equals the induced generator
    with parameters (p, t)."""
    t, one = Polynomial.t("Z"), Polynomial.one("Z")
    start = induce_F_form(GeneratorP(t * p, one).form())
    a, b = DihedralElement.monomial(0, 1), DihedralElement.monomial(1, 1)
    zero = DihedralElement.zero()
    mid = ((_poly_times_b_on_left(p), b), (zero, a))
    target = induce_F_form(GeneratorP(p, t).form())
    steps = (
        ("base_change", ((b, zero), (zero, a))),
        ("assert_equal", {"theta": mid}),
        ("switch", None),
        ("assert_equal", {"theta": target.theta}),
    )
    return start, steps


def resolution_switch_chain(p, g):
    """Start resolution and chain steps certifying that the switch of the
    induced complex for (tp, g) equals the induced complex for (p, tg)."""
    t = Polynomial.t("Z")
    start = induce_F_resolution(standard_resolution(t * p, g))
    a, b = DihedralElement.monomial(0, 1), DihedralElement.monomial(1, 1)
    zero = DihedralElement.zero()
    mid_psi0 = ((_poly_times_b_on_left(p), b), (b, _two_a_times_poly(g)))
    target = induce_F_resolution(standard_resolution(p, t * g))
    steps = (
        ("base_change", ((b, zero), (zero, a))),
        ("assert_equal", {"d": start.d, "psi0": mid_psi0, "psi1": _mneg(mid_psi0)}),
        ("switch", None),
        ("assert_equal", {"d": target.d, "psi0": target.psi0, "psi1": target.psi1}),
    )
    return start, steps
