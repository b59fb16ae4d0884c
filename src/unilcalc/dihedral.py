"""The group ring Z[D_inf] for D_inf = <a, b | a^2 = b^2 = 1>, with t = ba.

Group elements are written t^k a^eps and stored as (k, eps) pairs, so
multiplication is (t^j a^delta)(t^k a^eps) = t^(j + (-1)^delta k) a^(delta
xor eps).  A ring may carry a sign character w with w(a), w(b) in {+1, -1};
the involution sends g to w(g) g^(-1) and extends additively.  The switch
automorphism swaps a and b, i.e. t^k -> t^-k and t^k a -> t^(1-k) a.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DihedralRing:
    """Sign character of the involution; (1, 1) is the untwisted ring."""

    w_a: int = 1
    w_b: int = 1

    def __post_init__(self):
        if self.w_a not in (1, -1) or self.w_b not in (1, -1):
            raise ValueError("sign character values must be +1 or -1")

    def weight(self, k, eps):
        w = (self.w_a * self.w_b) ** (k & 1)
        return w * self.w_a if eps else w


TRIVIAL = DihedralRing(1, 1)


def _group_inv(k, eps):
    return (k, 1) if eps else (-k, 0)


def _term_key(item):
    (k, eps), _ = item
    return eps, k


def _element(d, ring):
    """An element from a dict that already holds nonzero coefficients only;
    the dict is taken over, not copied."""
    x = object.__new__(DihedralElement)
    x._d = d
    x.ring = ring
    x._terms = None
    return x


class DihedralElement:
    """Finite Z-linear combination of group elements, held as a dict
    {(k, eps): c} with nonzero coefficients only.  Instances are values:
    nothing mutates one after it is built."""

    __slots__ = ("_d", "ring", "_terms")

    def __init__(self, terms=(), ring=TRIVIAL):
        self._d = {g: c for g, c in dict(terms).items() if c}
        self.ring = ring
        self._terms = None

    @classmethod
    def from_dict(cls, d, ring=TRIVIAL):
        return _element({g: c for g, c in d.items() if c}, ring)

    @classmethod
    def zero(cls, ring=TRIVIAL):
        return _element({}, ring)

    @classmethod
    def monomial(cls, k, eps, c=1, ring=TRIVIAL):
        return _element({(k, eps): c} if c else {}, ring)

    @classmethod
    def from_poly(cls, p, a_twist=False, ring=TRIVIAL):
        """p(t) as an element, optionally right-multiplied by a."""
        if p.ring != "Z":
            p = p.map_ring("Z")
        eps = 1 if a_twist else 0
        return _element({(k, eps): c for k, c in enumerate(p.coeffs) if c}, ring)

    @property
    def terms(self):
        """The sorted view: a tuple of ((k, eps), coeff), ordered by (eps, k)."""
        if self._terms is None:
            self._terms = tuple(sorted(self._d.items(), key=_term_key))
        return self._terms

    def _check(self, other):
        if not isinstance(other, DihedralElement):
            raise TypeError(f"expected DihedralElement, got {type(other).__name__}")
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError("sign character mismatch")

    def __eq__(self, other):
        if not isinstance(other, DihedralElement):
            return NotImplemented
        return self._d == other._d and (self.ring is other.ring or self.ring == other.ring)

    def __hash__(self):
        return hash((frozenset(self._d.items()), self.ring))

    def is_zero(self):
        return not self._d

    def __add__(self, other):
        self._check(other)
        d = self._d.copy()
        for g, c in other._d.items():
            c += d.get(g, 0)
            if c:
                d[g] = c
            else:
                del d[g]
        return _element(d, self.ring)

    def __neg__(self):
        return _element({g: -c for g, c in self._d.items()}, self.ring)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return _element({}, self.ring)
            return _element({g: c * other for g, c in self._d.items()}, self.ring)
        self._check(other)
        d = {}
        get = d.get
        right = other._d.items()
        for (j, delta), c1 in self._d.items():
            # (t^j a^delta)(t^k a^eps) = t^(j + (-1)^delta k) a^(delta xor eps)
            if delta:
                for (k, eps), c2 in right:
                    g = (j - k, 1 - eps)
                    d[g] = get(g, 0) + c1 * c2
            else:
                for (k, eps), c2 in right:
                    g = (j + k, eps)
                    d[g] = get(g, 0) + c1 * c2
        return _element({g: c for g, c in d.items() if c}, self.ring)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    # g -> g^(-1) and the switch both permute the group elements, so the
    # images below never collide and need no summing

    def bar(self):
        """The involution g -> w(g) g^(-1)."""
        w = self.ring.weight
        return _element(
            {_group_inv(k, eps): c * w(k, eps) for (k, eps), c in self._d.items()}, self.ring
        )

    def switch(self):
        """The automorphism exchanging a and b."""
        return _element(
            {((1 - k, 1) if eps else (-k, 0)): c for (k, eps), c in self._d.items()}, self.ring
        )

    def __str__(self):
        if not self._d:
            return "0"
        out = []
        for (k, eps), c in self.terms:
            body = f"t^{k}*a" if eps else f"t^{k}"
            if not out:
                out.append(f"{c}*{body}")
            elif c < 0:
                out.append(f"-{-c}*{body}")
            else:
                out.append(f"+{c}*{body}")
        return "".join(out)

    __repr__ = __str__


A = DihedralElement.monomial(0, 1)
B = DihedralElement.monomial(1, 1)
T = DihedralElement.monomial(1, 0)
ONE = DihedralElement.monomial(0, 0)


def quad_indeterminacy_equal(x, y, eps):
    """Whether x - y lies in the subgroup generated by {v - eps*bar(v)}.

    The generators split along involution orbits of group elements, so
    membership reduces to one rank-1 lattice condition per orbit.
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    x._check(y)
    d = (x - y)._d
    ring = x.ring
    seen = set()
    for g in list(d):
        if g in seen:
            continue
        k, e = g
        gi = _group_inv(k, e)
        s = ring.weight(k, e)
        if gi == g:
            seen.add(g)
            c = d.get(g, 0)
            if eps * s == 1:
                if c != 0:
                    return False
            elif c % 2:
                return False
        else:
            seen.update((g, gi))
            if d.get(gi, 0) != -eps * s * d.get(g, 0):
                return False
    return True
