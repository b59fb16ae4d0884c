"""The group ring Z[D_inf] for D_inf = <a, b | a^2 = b^2 = 1>, with t = ba.

Group elements are written t^k a^eps, so multiplication is
(t^j a^delta)(t^k a^eps) = t^(j + (-1)^delta k) a^(delta xor eps).  The
involution sends g to g^(-1) and extends additively; the ring carries no
sign character, since the sign-twisted UNil groups reduce to the untwisted
ones by semiperiodicity (classify.relevant_unil).  The switch automorphism
swaps a and b, i.e. t^k -> t^-k and t^k a -> t^(1-k) a.

Internally t^k a^eps is the int key g = 2k + eps, so k = g >> 1 and
eps = g & 1.  The rules above become integer arithmetic on keys:

* the product of keys g and h is g + h when g is even and g - h when g is
  odd (for odd g, 2(j - k) + (1 - eps) = g - h);
* the involution sends an even g to -g and fixes an odd one;
* the switch sends an even g to -g and an odd one to 4 - g.

Multiplying by one group element, on either side, permutes the group, so a
product with a one-term factor relabels the other factor's keys and needs
no summing.  The ``terms`` view decodes keys back to (k, eps) pairs.
"""

from __future__ import annotations

from operator import index


def _term_key(item):
    # (eps, k) order; for keys of equal parity, k orders as g does
    g = item[0]
    return g & 1, g


def _element(d):
    """An element from a dict {key: c} that already holds nonzero
    coefficients only; the dict is taken over, not copied."""
    x = object.__new__(DihedralElement)
    x._d = d
    x._terms = None
    return x


def _integer(x, what):
    try:
        return index(x)
    except TypeError:
        raise TypeError(f"{what} is not an integer: {type(x).__name__} {x!r}") from None


def _key(k, eps):
    """The key of t^k a^eps, checking that k is an integer and eps is 0 or 1."""
    k = _integer(k, "exponent")
    if eps not in (0, 1) or not isinstance(eps, int):
        raise ValueError(f"a-exponent must be 0 or 1, got {eps!r}")
    return 2 * k + eps


def _not_an_element(other):
    return TypeError(f"expected DihedralElement, got {type(other).__name__}")


def _checked_dict(items):
    """The key dict of ((k, eps), c) pairs, checked, with the coefficients of
    a repeated group element summed."""
    d = {}
    for (k, eps), c in items:
        g = _key(k, eps)
        c = _integer(c, "coefficient") + d.get(g, 0)
        if c:
            d[g] = c
        else:
            d.pop(g, None)
    return d


class DihedralElement:
    """Finite Z-linear combination of group elements, held as a dict
    {2k + eps: c} with nonzero coefficients only.  Instances are values:
    nothing mutates one after it is built."""

    __slots__ = ("_d", "_terms")

    def __init__(self, terms=()):
        """From ((k, eps), c) pairs, or a dict {(k, eps): c}; coefficients
        of a repeated group element are summed."""
        self._d = _checked_dict(terms.items() if isinstance(terms, dict) else terms)
        self._terms = None

    @classmethod
    def zero(cls):
        return _element({})

    @classmethod
    def monomial(cls, k, eps, c=1):
        g, c = _key(k, eps), _integer(c, "coefficient")
        return _element({g: c} if c else {})

    @classmethod
    def from_poly(cls, p, a_twist=False):
        """p(t), a Polynomial over Z, as an element, optionally
        right-multiplied by a."""
        eps = 1 if a_twist else 0
        return _element({2 * k + eps: c for k, c in enumerate(p.coeffs) if c})

    @property
    def terms(self):
        """The sorted view: a tuple of ((k, eps), coeff), ordered by (eps, k)."""
        if self._terms is None:
            self._terms = tuple(
                ((g >> 1, g & 1), c) for g, c in sorted(self._d.items(), key=_term_key)
            )
        return self._terms

    def __eq__(self, other):
        if not isinstance(other, DihedralElement):
            return NotImplemented
        return self._d == other._d

    def __hash__(self):
        return hash(frozenset(self._d.items()))

    def is_zero(self):
        return not self._d

    def __add__(self, other):
        if not isinstance(other, DihedralElement):
            raise _not_an_element(other)
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
        if not isinstance(other, DihedralElement):
            if not isinstance(other, int):
                raise _not_an_element(other)
            if not other:
                return _element({})
            return _element({g: c * other for g, c in self._d.items()})
        left, right = self._d, other._d
        if len(right) == 1:
            ((h, c2),) = right.items()
            return _element({(g - h if g & 1 else g + h): c * c2 for g, c in left.items()})
        if len(left) == 1:
            ((g, c1),) = left.items()
            if g & 1:
                return _element({g - h: c1 * c for h, c in right.items()})
            return _element({g + h: c1 * c for h, c in right.items()})
        d = {}
        get = d.get
        right = right.items()
        for g, c1 in left.items():
            if g & 1:
                for h, c2 in right:
                    d[g - h] = get(g - h, 0) + c1 * c2
            else:
                for h, c2 in right:
                    d[g + h] = get(g + h, 0) + c1 * c2
        return _element({g: c for g, c in d.items() if c})

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    # g -> g^(-1) and the switch both permute the group elements, so the
    # images below never collide and need no summing

    def bar(self):
        """The involution g -> g^(-1)."""
        return _element({(g if g & 1 else -g): c for g, c in self._d.items()})

    def switch(self):
        """The automorphism exchanging a and b."""
        return _element({(4 - g if g & 1 else -g): c for g, c in self._d.items()})

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


def resolution_identity_holds(d, psi0, psi1):
    """Whether psi1 + psi1^* + d*psi0 = 0 for square matrices of one rank.

    Entry (i, j) is psi1[i][j] + bar(psi1[j][i]) + sum_l d[i][l] psi0[l][j];
    it is summed straight into one dict of keys, with no intermediate
    elements, and must vanish.
    """
    n = len(d)
    for i in range(n):
        terms = [(x._d.items(), row) for x, row in zip(d[i], psi0) if x._d]
        for j in range(n):
            acc = psi1[i][j]._d.copy()
            get = acc.get
            for h, c in psi1[j][i]._d.items():
                if not h & 1:
                    h = -h
                acc[h] = get(h, 0) + c
            for left, row in terms:
                right = row[j]._d.items()
                for g, c1 in left:
                    if g & 1:
                        for h, c2 in right:
                            acc[g - h] = get(g - h, 0) + c1 * c2
                    else:
                        for h, c2 in right:
                            acc[g + h] = get(g + h, 0) + c1 * c2
            if any(acc.values()):
                return False
    return True


def quad_indeterminacy_equal(x, y, eps):
    """Whether x - y lies in the subgroup generated by {v - eps*bar(v)}.

    The generators split along involution orbits of group elements, so
    membership reduces to one rank-1 lattice condition per orbit.
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    d = (x - y)._d
    for g, c in d.items():
        gi = g if g & 1 else -g
        if gi == g:
            # the orbit's generator is (1 - eps) g, and c is nonzero
            if eps == 1 or c % 2:
                return False
        elif d.get(gi, 0) != -eps * c:
            return False
    return True
