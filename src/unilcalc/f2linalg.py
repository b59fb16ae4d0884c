"""Exact linear algebra over F2[t].

Matrices are sequences of rows; each entry is an int bitmask (bit k is the
t^k coefficient).  Returned matrices are tuples of tuples.  Row spans are
canonicalised by Hermite form: pivot columns strictly increase, every entry
above a pivot has lower degree than the pivot, zero rows trail.  smith
returns a Smith form D of M with V^-1 of the column moves, not U or V:
the reduction of a sublagrangian reads its quotient basis off V^-1.
"""

from __future__ import annotations

from unilcalc.kernels import gf2_deg, gf2_divmod, gf2_mul


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_transpose(M):
    if not M:
        return ()
    return tuple(tuple(row[j] for row in M) for j in range(len(M[0])))


def mat_mul(Am, Bm):
    # row i of the product is the sum of Am[i][l] * Bm[l] over l, so a zero
    # entry of Am skips a whole row of Bm
    n = len(Bm[0]) if Bm else 0
    out = []
    for row in Am:
        acc = [0] * n
        for x, brow in zip(row, Bm):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] ^= gf2_mul(x, y)
        out.append(tuple(acc))
    return tuple(out)


def _row_addmul(rows, dst, src, q):
    # rows[dst] += q * rows[src]
    if not q:
        return
    rows[dst] = [x ^ gf2_mul(q, y) if y else x for x, y in zip(rows[dst], rows[src])]


def hnf(M):
    """Hermite form of the row span.  Returns (H, U) with U*M = H and U
    unimodular; H is the canonical basis described in the module docstring."""
    U = [list(row) for row in mat_identity(len(M))]
    H = _hermite(M, U)
    return H, tuple(tuple(row) for row in U)


def hermite_form(M):
    """The H of hnf(M) alone, for callers that need no U."""
    return _hermite(M, None)


def _hermite(M, U):
    # the row moves that take M to its Hermite form H, made on U too when U
    # is a list of rows
    m = len(M)
    n = len(M[0]) if m else 0
    H = [list(row) for row in M]
    r = 0
    for j in range(n):
        while True:
            cand = [i for i in range(r, m) if H[i][j]]
            if not cand:
                break
            i0 = min(cand, key=lambda i: gf2_deg(H[i][j]))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                if U is not None:
                    U[r], U[i0] = U[i0], U[r]
            clean = True
            for i in range(r + 1, m):
                if H[i][j]:
                    q, rem = gf2_divmod(H[i][j], H[r][j])
                    _row_addmul(H, i, r, q)
                    if U is not None:
                        _row_addmul(U, i, r, q)
                    if rem:
                        clean = False
            if clean:
                for i in range(r):
                    q, _ = gf2_divmod(H[i][j], H[r][j])
                    _row_addmul(H, i, r, q)
                    if U is not None:
                        _row_addmul(U, i, r, q)
                r += 1
                break
    return tuple(tuple(row) for row in H)


def divmod_rows(v, H):
    """Divide v by the nonzero rows of a Hermite-form H, pivot by pivot:
    returns (coefficients, remainder) with v = sum coefficients[i] * H[i]
    + remainder, the remainder reduced modulo the row span."""
    v = list(v)
    coeffs = []
    for row in H:
        j = next((c for c, x in enumerate(row) if x), None)
        if j is None:
            break
        q, _ = gf2_divmod(v[j], row[j])
        coeffs.append(q)
        if q:
            v = [x ^ gf2_mul(q, y) for x, y in zip(v, row)]
    return tuple(coeffs), tuple(v)


def left_kernel(M):
    """Canonical basis of {u : u*M = 0}."""
    H, U = hnf(M)
    ker = [U[i] for i in range(len(H)) if not any(H[i])]
    if not ker:
        return ()
    return tuple(row for row in hermite_form(ker) if any(row))


def det(M):
    """Determinant by Euclid on the columns.  In column j the rows from j
    down are divided by the one whose entry has least degree until a single
    nonzero entry is left, which is swapped up to row j.  A row move
    adds a multiple of another row and has determinant 1, and a swap has
    determinant -1 = 1 in characteristic 2, so det M is the product of the
    pivots."""
    n = len(M)
    A = [list(row) for row in M]
    d = 1
    for j in range(n):
        rows = [i for i in range(j, n) if A[i][j]]
        if not rows:
            return 0
        while len(rows) > 1:
            p = min(rows, key=lambda i: A[i][j].bit_length())
            src = A[p][j:]
            for i in rows:
                if i != p:
                    q, _ = gf2_divmod(A[i][j], src[0])
                    A[i][j:] = [x ^ gf2_mul(q, y) if y else x for x, y in zip(A[i][j:], src)]
            rows = [i for i in rows if A[i][j]]
        p = rows[0]
        A[j], A[p] = A[p], A[j]
        d = gf2_mul(d, A[j][j])
    return d


def smith(M):
    """Smith form: returns (D, Vinv) with U*M*V = D for a unimodular U that
    is not built, D diagonal with each diagonal entry dividing the next,
    and Vinv the inverse of the unimodular V.

    Row moves act on M alone.  A column move is M -> M*E, so V -> V*E and
    V^-1 -> E^-1 * V^-1, which is the inverse row move on Vinv: adding q
    times column src to column dst subtracts, which in characteristic 2
    adds, q times row dst to row src, and swapping two columns swaps the
    two rows.  V itself is never formed."""
    m = len(M)
    n = len(M[0]) if m else 0
    A = [list(row) for row in M]
    Vinv = [list(row) for row in mat_identity(n)]

    def col_addmul(dst, src, q):
        # A[:, dst] += q * A[:, src]; Vinv[src] += q * Vinv[dst]
        if not q:
            return
        for row in A:
            row[dst] ^= gf2_mul(q, row[src])
        _row_addmul(Vinv, src, dst, q)

    def col_swap(c1, c2):
        for row in A:
            row[c1], row[c2] = row[c2], row[c1]
        Vinv[c1], Vinv[c2] = Vinv[c2], Vinv[c1]

    for k in range(min(m, n)):
        while True:
            best = None
            for i in range(k, m):
                for j in range(k, n):
                    if A[i][j] and (best is None or gf2_deg(A[i][j]) < gf2_deg(A[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            i0, j0 = best
            if i0 != k:
                A[k], A[i0] = A[i0], A[k]
            if j0 != k:
                col_swap(k, j0)
            dirty = False
            for i in range(k + 1, m):
                if A[i][k]:
                    q, rem = gf2_divmod(A[i][k], A[k][k])
                    _row_addmul(A, i, k, q)
                    if rem:
                        dirty = True
            for j in range(k + 1, n):
                if A[k][j]:
                    q, rem = gf2_divmod(A[k][j], A[k][k])
                    col_addmul(j, k, q)
                    if rem:
                        dirty = True
            if dirty:
                continue
            # pivot divides the rest of the minor?  if not, fold the bad row in
            bad = next(
                (i for i in range(k + 1, m) for j in range(k + 1, n)
                 if A[i][j] and gf2_divmod(A[i][j], A[k][k])[1]),
                None,
            )
            if bad is None:
                break
            _row_addmul(A, k, bad, 1)
    D = tuple(tuple(row) for row in A)
    return D, tuple(tuple(row) for row in Vinv)
