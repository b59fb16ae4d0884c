"""(+1)/(-1)-quadratic forms as theta matrices, and their 1-dimensional
resolution complexes, over the untwisted dihedral group ring Z[D_inf].

A form is a square matrix theta of DihedralElement entries together with a
sign epsilon.  The bilinear pairing is the derived view lam = theta +
eps*theta^* (involution-transpose), which satisfies lam^* = eps*lam; the
quadratic refinement mu is the diagonal of theta, compared modulo the
indeterminacy {v - eps*vbar}.

A resolution is a triple (d, psi0, psi1) of square matrices with
psi1 + psi1^* = -d*psi0, checked on construction.  The check builds no
matrices: dihedral.resolution_identity_holds sums each entry
psi1[i][j] + bar(psi1[j][i]) + sum_l d[i][l] psi0[l][j] into one dict and
asks that it vanish.

Base change is by monomial matrices P of units (group elements up to
sign), computed entry by entry rather than as matrix products: column j of
P holds one unit u_j in row r_j, so (P* M P)[i][j] = bar(u_i) M[r_i][r_j] u_j.
Such a P is unitary.  The involution sends a group element g to g^-1, so
bar(u) u = u bar(u) = 1 for every unit u = +-g, and P* P = P P* = I.  So
P^-1 = P*, the resolution rule d -> P* d (P^-1)* is the congruence
d -> P* d P that theta, psi0 and psi1 get, and no inverse is formed.
Multiplying by a unit on either side permutes the group elements up to a
sign, so DihedralElement's product forms each entry bar(u_i) M[r_i][r_j] u_j
as two relabellings of keys, with no summing.

The paper's data lives over Z[t] and is induced into the group ring: theta
and psi entries q(t) become q(t)*a, and d keeps its entries q(t).  The
constructors here build that induced data directly, and nothing is lost by
never computing over Z[t]:

* the involution fixes every t^k*a (it is its own inverse), so on entries
  q(t)*a the conjugate transpose psi1^* is the plain transpose;
* d*psi0 multiplies the entries as Z[t] does: q(t) * r(t)a = (qr)(t)a;
* induction q -> q(t)*a is injective.

So the Z[t] identity psi1 + psi1^T = -d*psi0 holds exactly when the induced
QuadResolution check passes.  Likewise on an a-twisted diagonal entry the
indeterminacy {v - eps*vbar} restricted to the t^k*a terms is {0} for
eps = +1 and the even multiples for eps = -1, which is the Z[t]
indeterminacy {v - eps*v}.

A switch chain is four records (start, P, mid, end), all forms or all
resolutions, and verify_chain runs its four fixed steps: base change of
start by P, comparison with mid, switch, comparison with end.  Each step
builds, and so checks, a new record.
"""

from __future__ import annotations

from unilcalc._record import Record
from unilcalc.dihedral import (
    A,
    B,
    DihedralElement,
    quad_indeterminacy_equal,
    resolution_identity_holds,
)
from unilcalc.polynomials import Polynomial

_ZERO = DihedralElement.zero()
_TWO = DihedralElement.monomial(0, 0, 2)
_TWO_A = DihedralElement.monomial(0, 1, 2)


def _mconj_t(M):
    n = len(M)
    return tuple(tuple(M[j][i].bar() for j in range(n)) for i in range(n))


def _madd(Am, Bm):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(Am, Bm))


def _msign(M, eps):
    return M if eps == 1 else tuple(tuple(-x for x in row) for row in M)


class QuadraticFormTheta(Record):
    """eps-quadratic form presented by a theta matrix."""

    _fields = ("theta", "epsilon")

    def __init__(self, theta, epsilon):
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "epsilon", epsilon)
        self.__post_init__()

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


class QuadResolution(Record):
    """Resolution data (d, psi0, psi1); psi1 + psi1^* = -d*psi0 is enforced."""

    _fields = ("d", "psi0", "psi1", "epsilon")

    def __init__(self, d, psi0, psi1, epsilon):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "psi0", psi0)
        object.__setattr__(self, "psi1", psi1)
        object.__setattr__(self, "epsilon", epsilon)
        self.__post_init__()

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        k = len(self.d)
        for M in (self.d, self.psi0, self.psi1):
            if len(M) != k or any(len(row) != k for row in M):
                raise ValueError("d, psi0, psi1 must be square of equal rank")
        if not resolution_identity_holds(self.d, self.psi0, self.psi1):
            raise ValueError("resolution identity psi1 + psi1* = -d*psi0 fails")

    @property
    def rank(self):
        return len(self.d)


def _times_a(q):
    return DihedralElement.from_poly(q, a_twist=True)


def generator_form(p, g):
    """The rank-2 generator with lam = [[0,1],[-1,0]] and mu = (p, g) over
    Z[t], induced: theta = ((p*a, a), (0, g*a)) with eps = -1."""
    return QuadraticFormTheta(((_times_a(p), A), (_ZERO, _times_a(g))), -1)


_D2 = ((_TWO, _ZERO), (_ZERO, _TWO))


def _corner_resolution(x, off, y):
    """The checked resolution with d = 2I, psi0 = ((x, off), (off, y)) and
    psi1 = -psi0."""
    return QuadResolution(_D2, ((x, off), (off, y)), ((-x, -off), (-off, -y)), 1)


def standard_resolution(p, g):
    """The rank-2 complex over Z[t] with d = 2I, psi0 = [[p,1],[1,2g]],
    psi1 = -psi0, induced: psi entries pick up the factor a.  It resolves
    the linking form with parameters (p, g)."""
    return _corner_resolution(_times_a(p), A, _times_a(g * 2))


def _monomial_units(P):
    """Each column j's row r_j and unit u_j of a monomial matrix P of units,
    as two lists.  A P that does not have one nonzero entry in each row and
    each column is refused first, then the first nonzero entry, in row-major
    order, that is not a unit +-g."""
    n = len(P)
    entries = [(i, j) for i in range(n) for j in range(n) if not P[i][j].is_zero()]
    if len(entries) != n or len({i for i, _ in entries}) != n or len({j for _, j in entries}) != n:
        raise ValueError("base-change matrix is not monomial")
    rows, units = [0] * n, [None] * n
    for i, j in entries:
        u = P[i][j]
        if len(u.terms) != 1 or u.terms[0][1] not in (1, -1):
            raise ValueError(f"entry {u} is not a group-element unit")
        rows[j], units[j] = i, u
    return rows, units


def base_change(x, P):
    """The congruence M -> P* M P, applied to theta of a form and to each of
    d, psi0 and psi1 of a resolution.  P must be a monomial matrix of units
    (group elements up to sign); such a P is unitary, so this is also the
    rule d -> P* d (P^-1)*.  The products are formed entry by entry, as
    the module docstring describes."""
    rows, units = _monomial_units(P)
    left = [u.bar() for u in units]

    def congruence(M):
        return tuple(
            tuple(u * M[r][s] * v for s, v in zip(rows, units)) for r, u in zip(rows, left)
        )

    if isinstance(x, QuadraticFormTheta):
        return QuadraticFormTheta(congruence(x.theta), x.epsilon)
    return QuadResolution(congruence(x.d), congruence(x.psi0), congruence(x.psi1), x.epsilon)


def switch_form(x):
    """Apply the switch automorphism to every matrix entry."""

    def sw(M):
        return tuple(tuple(e.switch() for e in row) for row in M)

    if isinstance(x, QuadraticFormTheta):
        return QuadraticFormTheta(sw(x.theta), x.epsilon)
    return QuadResolution(sw(x.d), sw(x.psi0), sw(x.psi1), x.epsilon)


def _forms_diff(lhs, rhs):
    """None if equal as forms, else a short description of the first
    divergent entry."""
    if lhs.epsilon != rhs.epsilon:
        raise ValueError("forms have different signs")
    if lhs.rank != rhs.rank:
        return f"rank {lhs.rank} vs {rhs.rank}"
    # equal thetas give equal lambda and mu
    if lhs.theta == rhs.theta:
        return None
    la, lb = lhs.lam(), rhs.lam()
    for i in range(lhs.rank):
        for j in range(lhs.rank):
            if la[i][j] != lb[i][j]:
                return f"lambda entry ({i},{j}): {la[i][j]} vs {lb[i][j]}"
    for i, (x, y) in enumerate(zip(lhs.mu(), rhs.mu())):
        if not quad_indeterminacy_equal(x, y, lhs.epsilon):
            return f"mu entry {i}: {x} vs {y}"
    return None


def _res_diff(lhs, rhs):
    """None if equal as resolutions, else a short description of the first
    divergent entry of d, then of psi0.

    psi1 is never compared.  Off the diagonal it is pure indeterminacy, and
    on it it is defined modulo {v - bar(v)}, which two checked resolutions
    with equal d and psi0 always agree on: the difference X of their psi1
    has X + X^* = -d*psi0 + d*psi0 = 0, so a diagonal entry x of X has
    x + bar(x) = 0.  The involution permutes the group elements, fixing
    exactly 1 and the t^k a, so x has coefficient 0 on those (2c = 0 in Z)
    and opposite coefficients c, -c on each other pair g, g^-1; that is,
    x is the sum of the c (g - bar(g)), which lies in {v - bar(v)}."""
    if lhs.epsilon != rhs.epsilon:
        raise ValueError("resolutions have different signs")
    if lhs.rank != rhs.rank:
        return f"rank {lhs.rank} vs {rhs.rank}"
    for name in ("d", "psi0"):
        M, N = getattr(lhs, name), getattr(rhs, name)
        if M == N:
            continue
        # walk the entries only to name the first that differs
        for i in range(lhs.rank):
            for j in range(lhs.rank):
                if M[i][j] != N[i][j]:
                    return f"{name} entry ({i},{j}): {M[i][j]} vs {N[i][j]}"
    return None


# ---------------------------------------------------------------------------
# chains

def verify_chain(start, P, mid, end):
    """Apply the base change P to start, compare the result with mid,
    switch it, and compare that with end.  Returns None when all four steps
    pass, else the first failure as ``step N <op>: ...`` (1 base_change,
    2 assert_equal, 3 switch, 4 assert_equal)."""
    diff = _forms_diff if isinstance(start, QuadraticFormTheta) else _res_diff
    step = "1 base_change"
    try:
        state = base_change(start, P)
        step = "2 assert_equal"
        failure = diff(state, mid)
        if failure is None:
            step = "3 switch"
            state = switch_form(state)
            step = "4 assert_equal"
            failure = diff(state, end)
    except ValueError as exc:
        failure = str(exc)
    return None if failure is None else f"step {step}: {failure}"


# ---------------------------------------------------------------------------
# the two bundled chains

# diag(b, a), the base change of both chains
_DIAG_BA = ((B, _ZERO), (_ZERO, A))


def _poly_times_b_on_left(p):
    # b*p(t) = sum c_k t^(1-k) a
    return B * DihedralElement.from_poly(p)


def _two_a_times_poly(g):
    # 2a*g(t) = sum 2 c_k t^(-k) a
    return _TWO_A * DihedralElement.from_poly(g)


def generator_switch_chain(p):
    """The chain (start, P, mid, end) certifying that the switch of the
    induced rank-2 generator with parameters (tp, 1) equals the induced
    generator with parameters (p, t)."""
    t, one = Polynomial.t(), Polynomial.one()
    mid = QuadraticFormTheta(((_poly_times_b_on_left(p), B), (_ZERO, A)), -1)
    return generator_form(t * p, one), _DIAG_BA, mid, generator_form(p, t)


def resolution_switch_chain(p, g):
    """The chain (start, P, mid, end) certifying that the switch of the
    induced complex for (tp, g) equals the induced complex for (p, tg)."""
    t = Polynomial.t()
    mid = _corner_resolution(_poly_times_b_on_left(p), B, _two_a_times_poly(g))
    return standard_resolution(t * p, g), _DIAG_BA, mid, standard_resolution(p, t * g)
