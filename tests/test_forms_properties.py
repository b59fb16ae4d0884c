"""Property tests of the soundness argument in the forms docstring: the
identities the paper states over Z[t] hold exactly when their images
induced into Z[D_inf] hold.  The Z[t] side is computed here with plain
integer coefficient lists, independently of the package."""

from itertools import product

import pytest

from tests.helpers_oracles import dihedral_conj_t, dihedral_matadd, dihedral_matmul, dihedral_matneg
from tests.test_forms import res_diff_by_entry_walk
from unilcalc import forms
from unilcalc.dihedral import DihedralElement, quad_indeterminacy_equal
from unilcalc.forms import QuadResolution

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# a polynomial over Z as its coefficient list, constant term first
zt_polys = st.lists(st.integers(-2, 2), max_size=3)


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(p, q):
    n = max(len(p), len(q))
    return _trim((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def pneg(p):
    return [-c for c in p]


def pmul(p, q):
    out = [0] * (len(p) + len(q))
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def madd(M, N):
    return [[padd(x, y) for x, y in zip(r, s)] for r, s in zip(M, N)]


def mneg(M):
    return [[pneg(x) for x in row] for row in M]


def mmul(M, N):
    k = len(M)
    out = [[[] for _ in range(k)] for _ in range(k)]
    for i in range(k):
        for j in range(k):
            for m in range(k):
                out[i][j] = padd(out[i][j], pmul(M[i][m], N[m][j]))
    return out


def mtrans(M):
    return [list(col) for col in zip(*M)]


def induce(M, twist):
    """Entries q(t) -> q(t)*a when twist is 1, q(t) when it is 0."""
    return tuple(
        tuple(DihedralElement({(k, twist): c for k, c in enumerate(q)}) for q in row)
        for row in M
    )


@st.composite
def zt_triples(draw):
    """(d, psi0, psi1, perturbed) over Z[t] of rank 1 or 2.  Unperturbed
    triples satisfy psi1 + psi1^T = -d*psi0 by construction: with
    N = d V d^T, psi0 = (V + V^T) d^T and psi1 = -N + U - U^T.  About half
    get a nonzero polynomial added to one psi1 entry, which breaks the
    identity at that entry (by 2*delta on the diagonal)."""
    k = draw(st.integers(1, 2))
    mats = st.lists(st.lists(zt_polys, min_size=k, max_size=k), min_size=k, max_size=k)
    d, V, U = draw(mats), draw(mats), draw(mats)
    d, V, U = ([[_trim(q) for q in row] for row in M] for M in (d, V, U))
    psi0 = mmul(madd(V, mtrans(V)), mtrans(d))
    psi1 = madd(mneg(mmul(mmul(d, V), mtrans(d))), madd(U, mneg(mtrans(U))))
    perturbed = draw(st.booleans())
    if perturbed:
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        delta = _trim(draw(zt_polys.filter(any)))
        psi1[i][j] = padd(psi1[i][j], delta)
    return d, psi0, psi1, perturbed


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(zt_triples())
def test_resolution_identity_holds_iff_induced_check_passes(triple):
    d, psi0, psi1, perturbed = triple
    zt_holds = madd(psi1, mtrans(psi1)) == mneg(mmul(d, psi0))
    assert zt_holds == (not perturbed)
    try:
        QuadResolution(induce(d, 0), induce(psi0, 1), induce(psi1, 1), 1)
        induced_holds = True
    except ValueError:
        induced_holds = False
    assert induced_holds == zt_holds


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(zt_polys, zt_polys, st.sampled_from((1, -1)))
def test_mu_indeterminacy_on_a_twisted_entries(p, q, eps):
    """Over Z[t] with the trivial involution, v - eps*v is 0 for eps = +1
    and 2v for eps = -1."""
    diff = padd(p, pneg(q))
    zt_equal = not diff if eps == 1 else all(c % 2 == 0 for c in diff)
    x, y = (induce([[r]], 1)[0][0] for r in (p, q))
    assert quad_indeterminacy_equal(x, y, eps) == zt_equal


# an element of Z[D_inf] with at most three terms t^k a^eps, |k| <= 2
small_elements = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(0, 1)), st.integers(-2, 2), max_size=3
).map(DihedralElement)


@st.composite
def resolutions(draw):
    """A resolution of rank 1 or 2 over Z[D_inf]: with N = d V d^*,
    psi0 = (V + V^*) d^* and psi1 = -N + U - U^* satisfy
    psi1 + psi1^* = -d*psi0."""
    k = draw(st.integers(1, 2))
    mats = st.lists(st.lists(small_elements, min_size=k, max_size=k), min_size=k, max_size=k)
    d, V, U = (tuple(map(tuple, draw(mats))) for _ in range(3))
    psi0 = dihedral_matmul(dihedral_matadd(V, dihedral_conj_t(V)), dihedral_conj_t(d))
    N = dihedral_matmul(dihedral_matmul(d, V), dihedral_conj_t(d))
    psi1 = dihedral_matadd(dihedral_matneg(N), dihedral_matadd(U, dihedral_matneg(dihedral_conj_t(U))))
    return QuadResolution(d, psi0, psi1, 1)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(resolutions(), st.data())
def test_psi1_diagonals_agree_when_d_and_psi0_do(a, data):
    """forms._res_diff never compares psi1: two checked resolutions with
    equal d and psi0 have psi1 diagonals equal modulo {v - bar(v)}.  Every
    x with coefficients in {-1, 0, 1} on a few group elements is added to
    one diagonal entry of psi1, and the resolution check alone decides
    which of them keep psi1 + psi1^* = -d*psi0."""
    i = data.draw(st.integers(0, a.rank - 1))
    keys = data.draw(st.lists(st.integers(-4, 4), min_size=2, max_size=4, unique=True))
    kept = 0
    for coeffs in product((-1, 0, 1), repeat=len(keys)):
        # key g is the group element t^(g >> 1) a^(g & 1)
        x = DihedralElement({(g >> 1, g & 1): c for g, c in zip(keys, coeffs)})
        psi1 = tuple(
            tuple(e + x if (r, s) == (i, i) else e for s, e in enumerate(row))
            for r, row in enumerate(a.psi1)
        )
        try:
            b = QuadResolution(a.d, a.psi0, psi1, 1)
        except ValueError:
            continue
        kept += 1
        assert quad_indeterminacy_equal(a.psi1[i][i], b.psi1[i][i], 1)
        assert forms._res_diff(a, b) is None and res_diff_by_entry_walk(a, b) is None
    assert kept >= 1  # x = 0
