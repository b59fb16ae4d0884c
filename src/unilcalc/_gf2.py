"""Bit-packed arithmetic kernels for F2[t] and Z4[t], pure Python.

An element of F2[t] is a nonnegative int whose bit k is the coefficient of
t^k.  An element of Z4[t] is a pair of such ints (lo, hi); the coefficient
of t^k is lo_k + 2*hi_k.  The rest of the package imports these
functions through unilcalc.kernels.
"""

import functools

BACKEND = "python"  # reported by the benchmark harness in perfbench


def gf2_deg(a):
    """Degree of a, -1 for the zero polynomial."""
    return a.bit_length() - 1


def gf2_mul(a, b):
    if a < b:
        a, b = b, a
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return r


def gf2_divmod(a, b):
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length()
    q = 0
    da = a.bit_length()
    while da >= db:
        sh = da - db
        q |= 1 << sh
        a ^= b << sh
        da = a.bit_length()
    return q, a


def gf2_mod(a, b):
    return gf2_divmod(a, b)[1]


def gf2_gcd(a, b):
    while b:
        a, b = b, gf2_mod(a, b)
    return a


def gf2_spread(a):
    """a(t^2), which equals the mod-2 part of the integer square of a lift."""
    return _pad(a, _pad_table(2))


def gf2_cross_square(a):
    """Carry plane of the integer square of the {0,1}-lift of a.

    lift(a)^2 = gf2_spread(a) + 2*gf2_cross_square(a) + 4*(...).
    """
    r = 0
    i = 0
    b = a
    while b:
        if b & 1:
            r ^= (a >> (i + 1)) << (2 * i + 1)
        b >>= 1
        i += 1
    return r


def z4_add(alo, ahi, blo, bhi):
    carry = alo & blo
    return alo ^ blo, ahi ^ bhi ^ carry


def z4_neg(lo, hi):
    return lo, hi ^ lo


@functools.cache
def _pad_table(w):
    """Byte x -> the 8 bits of x placed one per w-bit field, as the w
    little-endian bytes those 8 fields fill."""
    return tuple(
        sum(1 << (w * i) for i in range(8) if x >> i & 1).to_bytes(w, "little")
        for x in range(256)
    )


def _pad(a, table):
    # every byte of a spreads to exactly w whole bytes, so the padded int is
    # the join of their table entries, built in linear time
    return int.from_bytes(
        b"".join([table[x] for x in a.to_bytes((a.bit_length() + 7) // 8, "little")]),
        "little",
    )


def z4_mul(alo, ahi, blo, bhi):
    a, b = alo | ahi, blo | bhi
    if not (a and b):
        return 0, 0
    # one w-bit field per coefficient, so one bignum multiply performs the
    # whole integer convolution: a convolution coefficient sums at most n
    # products of coefficients <= 3, n the length of the shorter operand,
    # so it is <= 9n < 2^w
    w = (9 * (a if a < b else b).bit_length()).bit_length()
    table = _pad_table(w)
    A = _pad(alo, table) + (_pad(ahi, table) << 1)
    B = _pad(blo, table) + (_pad(bhi, table) << 1)
    # read bits 0 and 1 of every field off the binary string of the
    # product, which takes linear time where shifting P field by field
    # copies it each time; s[j] is bit len(s) - 1 - j of P
    s = format(A * B, "b")
    n = len(s)
    return int(s[(n - 1) % w :: w], 2), int(s[(n - 2) % w :: w] or "0", 2)


def z4_sq_lift(f):
    """Square of the {0,1}-lift of f in F2[t], reduced mod 4."""
    return gf2_spread(f), gf2_cross_square(f)
