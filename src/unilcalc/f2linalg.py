"""Exact linear algebra over F2[t].

Matrices are sequences of rows; each entry is an int bitmask (bit k is the
t^k coefficient).  Returned matrices are tuples of tuples.  Row spans are
canonicalised by Hermite form: pivot columns strictly increase, every entry
above a pivot has lower degree than the pivot, zero rows trail.  hnf,
hermite_form and unimodular_completion, which gives a sublagrangian
reduction its quotient basis, share the one engine of those row moves.
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


def _hermite(M, U, W=None):
    # the row moves that take M to its Hermite form H, made on U too when U
    # is a list of rows, and on W = (U^-1)^T when W is: row i += q * row r
    # is U -> E*U with E its own inverse in characteristic 2, so W -> E^T*W,
    # which is row r += q * row i; a swap swaps the same two rows of W
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
                if W is not None:
                    W[r], W[i0] = W[i0], W[r]
            clean = True
            for i in range(r + 1, m):
                if H[i][j]:
                    q, rem = gf2_divmod(H[i][j], H[r][j])
                    _row_addmul(H, i, r, q)
                    if U is not None:
                        _row_addmul(U, i, r, q)
                    if W is not None:
                        _row_addmul(W, r, i, q)
                    if rem:
                        clean = False
            if clean:
                for i in range(r):
                    q, _ = gf2_divmod(H[i][j], H[r][j])
                    _row_addmul(H, i, r, q)
                    if U is not None:
                        _row_addmul(U, i, r, q)
                    if W is not None:
                        _row_addmul(W, r, i, q)
                r += 1
                break
    return tuple(tuple(row) for row in H)


def unimodular_completion(C):
    """Rows Y with [C; Y] unimodular, for an r x m matrix C with 0 < r <= m,
    or None when there are none, that is when the r x r minors of C have a
    gcd other than 1.  The Hermite form of C^T is found with W = (U^-1)^T
    tracked: U * C^T = [I; 0] exactly when its r pivots are 1, and then
    U^-1 = [C^T | Y^T], so Y is the last m - r rows of W."""
    r = len(C)
    m = len(C[0])
    W = [list(row) for row in mat_identity(m)]
    H = _hermite(mat_transpose(C), None, W)
    if any(H[i][i] != 1 for i in range(r)):
        return None
    return tuple(tuple(row) for row in W[r:])


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
