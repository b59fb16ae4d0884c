"""Symplectic bases over the principal ideal domain F2[t].

Polynomials are bit-packed ints (see kernels), vectors are tuples of them
and matrices are sequences of rows, as in f2linalg.  A symmetric matrix
over F2[t] with zero diagonal and determinant 1 is an alternating
unimodular pairing on F2[t]^k.  Over a principal ideal domain such a
pairing has a symplectic basis: pairs (u_i, v_i) with b(u_i, v_i) = 1 and
every other pairing 0.  It exists over F2[t] itself, so nothing needs the
fraction field F2(t).
"""

from __future__ import annotations

from unilcalc.kernels import gf2_divmod, gf2_mul


def symplectic_basis(b_num, q2):
    """Tuples (u_i, v_i, q2(u_i), q2(v_i)): vectors u_i, v_i of F2[t]^k, in
    the standard coordinates, with b(u_i, v_i) = 1 and every other pairing
    between them 0, for b_num symmetric with zero diagonal and det b_num =
    1, and the values on them of the quadratic refinement q2 of b whose
    values on the standard basis are q2[i].  Stacked as the rows u_1, v_1,
    u_2, v_2, ... the vectors form P with P * b_num * P^T = J, the block
    sum of [[0, 1], [1, 0]], and det P = 1.

    Euclid on the Gram matrix G of the current basis, which starts as the
    standard one.  Take u = w_0 and divide the other entries of its row by
    the one of least degree, b(u, w_v), with moves w_l -> w_l + q w_v,
    until only one is left.  The pairing is unimodular, so that entry is 1,
    and w_l -> w_l + b(w_l, w_v) u makes every other w_l orthogonal to u
    and w_v, which are split off.  Every move is unimodular and is applied
    to the coordinates and to both sides of G, and carried on q2 by the
    quadratic law: w_dst -> w_dst + f w_src adds f^2 q2(w_src) + f
    b(w_dst, w_src) to q2(w_dst), with b read off G before the move.  So q2
    is never evaluated on the coordinates, whose degrees grow with the
    rank.  A row that ends in an entry other than 1 means b_num is not
    unimodular, and raises ValueError.
    (Bezout over the row, then a Hermite basis of the projections, gives a
    basis too, but its coordinate degrees double at every split.)
    """
    k = len(b_num)
    if any(b_num[i][i] for i in range(k)):
        raise ValueError("a symplectic basis needs a zero diagonal")
    G = [list(row) for row in b_num]
    P = [[int(i == j) for j in range(k)] for i in range(k)]
    q2 = list(q2)
    active = list(range(k))

    def move(dst, src, f):
        # w_dst += f w_src; G is kept on the active vectors only, the ones
        # split off are never paired again
        q2[dst] ^= gf2_mul(f, gf2_mul(f, q2[src]) ^ G[dst][src])
        P[dst] = [x ^ gf2_mul(f, y) if y else x for x, y in zip(P[dst], P[src])]
        gd, gs = G[dst], G[src]
        for l in active:
            if gs[l]:
                gd[l] ^= gf2_mul(f, gs[l])
        for l in active:
            row = G[l]
            if row[src]:
                row[dst] ^= gf2_mul(f, row[src])

    pairs = []
    while active:
        u = active[0]
        row = [l for l in active if G[u][l]]
        while len(row) > 1:
            v = min(row, key=lambda l: G[u][l].bit_length())
            for l in row:
                if l != v:
                    move(l, v, gf2_divmod(G[u][l], G[u][v])[0])
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
