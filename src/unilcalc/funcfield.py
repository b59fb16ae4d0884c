"""Symplectic bases over the principal ideal domain F2[t].

Polynomials are bit-packed ints (see kernels), vectors are tuples of them
and matrices are sequences of rows.  A symmetric matrix over F2[t] with
zero diagonal and determinant 1 is an alternating unimodular pairing on
F2[t]^k.  Over a principal ideal domain such a pairing has a symplectic
basis: pairs (u_i, v_i) with b(u_i, v_i) = 1 and every other pairing 0.
It exists over F2[t] itself, so nothing needs the fraction field F2(t).

symplectic_q2 builds such a basis without recording its coordinates: it
keeps only the Gram matrix of the current basis and the values on it of a
quadratic refinement, which is all the Arf invariant reads.  The same pass
decides whether the pairing is unimodular, so an even linking form needs
no determinant besides it.
"""

from __future__ import annotations

from unilcalc.kernels import gf2_divmod, gf2_mul


def symplectic_q2(b_num, q2):
    """Pairs (q2(u_i), q2(v_i)) over a symplectic basis (u_i, v_i) of the
    pairing b_num, symmetric with zero diagonal, for the quadratic
    refinement q2 of b whose values on the standard basis are q2[i].
    Raises ValueError when b_num is not unimodular.

    Euclid on the Gram matrix G of the current basis, which starts as the
    standard one.  Take u = w_0 and divide the other entries of its row by
    the one of least degree, b(u, w_v), with moves w_l -> w_l + q w_v,
    until at most one is left.  Unimodular moves keep det G, and so does
    splitting off a plane whose pairing is 1, because its block has
    determinant 1 and the rest is orthogonal to it.  So when the row ends
    empty or on an entry other than 1, which divides det G, b_num is not
    unimodular; otherwise that entry is 1, and w_l -> w_l + b(w_l, w_v) u
    makes every other w_l orthogonal to u and w_v, which are split off.
    A move w_dst -> w_dst + f w_src adds f times row src to row dst of G;
    G stays symmetric with zero diagonal, so column dst is copied from the
    new row.  q2 is carried by the quadratic law: the move adds f^2
    q2(w_src) + f b(w_dst, w_src) to q2(w_dst), with b read off G before
    the move.  The coordinates of the w_l, whose degrees grow with the
    rank, are never formed.
    """
    k = len(b_num)
    if any(b_num[i][i] for i in range(k)):
        raise ValueError("a symplectic basis needs a zero diagonal")
    G = [list(row) for row in b_num]
    q2 = list(q2)
    active = list(range(k))

    def move(dst, src, f):
        # w_dst += f w_src; G is kept on the active vectors only, the ones
        # split off are never paired again
        gd, gs = G[dst], G[src]
        q2[dst] ^= gf2_mul(f, gf2_mul(f, q2[src]) ^ gd[src])
        for l in active:
            y = gs[l]
            if y and l != dst:
                x = gd[l] ^ gf2_mul(f, y)
                gd[l] = x
                G[l][dst] = x

    pairs = []
    while active:
        u = active[0]
        gu = G[u]
        row = [l for l in active if gu[l]]
        while len(row) > 1:
            v = min(row, key=lambda l: gu[l].bit_length())
            for l in row:
                if l != v:
                    move(l, v, gf2_divmod(gu[l], gu[v])[0])
            row = [l for l in row if gu[l]]
        if not row or gu[row[0]] != 1:
            raise ValueError("b_num is not unimodular: a pairing row is not primitive")
        v = row[0]
        gv = G[v]
        for l in active:
            if l != u and gv[l]:
                move(l, u, gv[l])
        pairs.append((q2[u], q2[v]))
        active = [l for l in active if l != u and l != v]
    return pairs
