"""The group ring Z[D_inf] for D_inf = <a, b | a^2 = b^2 = 1>, with t = ba.

Group elements are written t^k a^eps and stored as (k, eps) pairs, so
multiplication is (t^j a^delta)(t^k a^eps) = t^(j + (-1)^delta k) a^(delta
xor eps).  The involution sends g to g^(-1) and extends additively; the
ring carries no sign character, since the sign-twisted UNil groups reduce
to the untwisted ones by semiperiodicity (classify.relevant_unil).  The
switch automorphism swaps a and b, i.e. t^k -> t^-k and t^k a -> t^(1-k) a.
"""

from __future__ import annotations


def _group_inv(k, eps):
    return (k, 1) if eps else (-k, 0)


def _term_key(item):
    (k, eps), _ = item
    return eps, k


def _element(d):
    """An element from a dict that already holds nonzero coefficients only;
    the dict is taken over, not copied."""
    x = object.__new__(DihedralElement)
    x._d = d
    x._terms = None
    return x


class DihedralElement:
    """Finite Z-linear combination of group elements, held as a dict
    {(k, eps): c} with nonzero coefficients only.  Instances are values:
    nothing mutates one after it is built."""

    __slots__ = ("_d", "_terms")

    def __init__(self, terms=()):
        self._d = {g: c for g, c in dict(terms).items() if c}
        self._terms = None

    @classmethod
    def from_dict(cls, d):
        return _element({g: c for g, c in d.items() if c})

    @classmethod
    def zero(cls):
        return _element({})

    @classmethod
    def monomial(cls, k, eps, c=1):
        return _element({(k, eps): c} if c else {})

    @classmethod
    def from_poly(cls, p, a_twist=False):
        """p(t), a Polynomial over Z, as an element, optionally
        right-multiplied by a."""
        eps = 1 if a_twist else 0
        return _element({(k, eps): c for k, c in enumerate(p.coeffs) if c})

    @property
    def terms(self):
        """The sorted view: a tuple of ((k, eps), coeff), ordered by (eps, k)."""
        if self._terms is None:
            self._terms = tuple(sorted(self._d.items(), key=_term_key))
        return self._terms

    def _check(self, other):
        if not isinstance(other, DihedralElement):
            raise TypeError(f"expected DihedralElement, got {type(other).__name__}")

    def __eq__(self, other):
        if not isinstance(other, DihedralElement):
            return NotImplemented
        return self._d == other._d

    def __hash__(self):
        return hash(frozenset(self._d.items()))

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
        return _element(d)

    def __neg__(self):
        return _element({g: -c for g, c in self._d.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return _element({})
            return _element({g: c * other for g, c in self._d.items()})
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
        return _element({g: c for g, c in d.items() if c})

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    # g -> g^(-1) and the switch both permute the group elements, so the
    # images below never collide and need no summing

    def bar(self):
        """The involution g -> g^(-1)."""
        return _element({_group_inv(k, eps): c for (k, eps), c in self._d.items()})

    def switch(self):
        """The automorphism exchanging a and b."""
        return _element({((1 - k, 1) if eps else (-k, 0)): c for (k, eps), c in self._d.items()})

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
    d = (x - y)._d
    for g, c in d.items():
        gi = _group_inv(*g)
        if gi == g:
            # the orbit's generator is (1 - eps) g, and c is nonzero
            if eps == 1 or c % 2:
                return False
        elif d.get(gi, 0) != -eps * c:
            return False
    return True
