"""Finite rational combinations of keys, and the graded unit recursions.

LinComb is a finite map key -> nonzero Fraction with its vector-space
operations.  Tensor words and symmetric monomials (pbw), exterior terms
(hodge) and Chern monomials (series) subclass it, adding only how a key is
normalised, their context (a model, a truncation), their products and
their printing.  The public constructor of each kind parses
outside input through the _key hook, which may raise or drop a key;
arithmetic results are canonical already and go through _like, which only
drops zero coefficients.

cleared writes rational maps as integer maps over one common denominator,
so that sums of products run over ints with one Fraction per result.

unit_inverse, unit_sqrt and graded_exp compute 1/a, sqrt(a) and exp(a)
weight by weight over any commutative graded product, from the pieces
a_0, a_1, ... of a by weight.  In each, the weight-w part of the result is
a sum of products of lower-weight parts, so no power of a is ever formed.
graded_exp runs in Z: it clears its pieces once, multiplies integer term
maps only, and builds one Fraction per key of the result.
"""

from fractions import Fraction
from math import lcm

from .linalg import parse_rational


class LinComb:
    """Finite map from normalised keys to nonzero rational coefficients.

    Subclasses list their context attributes in _CONTEXT and set them
    before calling LinComb.__init__, because _key may read them.
    """

    __slots__ = ("terms",)
    _CONTEXT: tuple[str, ...] = ()

    def __init__(self, terms=None):
        tidy: dict = {}
        for key, c in (terms or {}).items():
            c = parse_rational(c)
            if not c:
                continue
            key = self._key(key)
            if key is None:
                continue
            tidy[key] = tidy[key] + c if key in tidy else c
        self.terms = {k: c for k, c in tidy.items() if c}

    def _key(self, key):
        """Canonical form of an outside key; None drops the term."""
        return key

    def _like(self, terms: dict) -> "LinComb":
        """Same kind and context as self, from canonical terms."""
        out = object.__new__(type(self))
        for name in self._CONTEXT:
            setattr(out, name, getattr(self, name))
        out.terms = {k: c for k, c in terms.items() if c}
        return out

    def _join(self, other) -> "LinComb":
        """Check that other combines with self; return the context donor."""
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        return self

    def __add__(self, other):
        base = self._join(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return base._like(out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = parse_rational(c)
        return self._like({k: c * v for k, v in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and all(getattr(self, n) == getattr(other, n) for n in self._CONTEXT)
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def _word(self, key) -> str:
        return str(key)

    def __repr__(self):
        body = " + ".join(f"{c}*{self._word(k)}" for k, c in sorted(self.terms.items()))
        return f"{type(self).__name__}({body or 0})"


def cleared(maps: list[dict]) -> tuple[list[dict], int]:
    """The rational maps as integer maps over their least common denominator."""
    den = lcm(*(c.denominator for m in maps for c in m.values()))
    return [{k: c.numerator * (den // c.denominator) for k, c in m.items()} for m in maps], den


def unit_inverse(pieces: list, mul) -> LinComb:
    """1/a for a = sum of graded pieces, pieces[0] the unit.

    u_0 = 1 and u_w = -sum_{i=1..w} a_i u_{w-i}; returns sum of u_w.
    """
    u = [pieces[0]]
    for w in range(1, len(pieces)):
        acc = pieces[0]._like({})
        for i in range(1, w + 1):
            acc = acc + mul(pieces[i], u[w - i])
        u.append(acc.scale(-1))
    return sum(u[1:], u[0])


def unit_sqrt(pieces: list, mul) -> LinComb:
    """sqrt(a) with constant term 1 for a = sum of graded pieces.

    s_0 = 1 and s_w = (a_w - sum_{i=1..w-1} s_i s_{w-i}) / 2.
    """
    s = [pieces[0]]
    for w in range(1, len(pieces)):
        acc = pieces[w]
        for i in range(1, w):
            acc = acc - mul(s[i], s[w - i])
        s.append(acc.scale(Fraction(1, 2)))
    return sum(s[1:], s[0])


def graded_exp(pieces: list[dict], one: LinComb, mul_terms) -> LinComb:
    """exp(a) for a = sum of graded pieces (term maps), pieces[0] zero.

    e_0 = one and w e_w = sum_{k=1..w} k a_k e_{w-k}, the weight-w part of
    E' = A' E.  With the pieces cleared once to integer maps A_k over one
    denominator d, E_w = d^w w! e_w is the integer map
    sum_k k d^(k-1) (w-1)!/(w-k)! A_k * E_{w-k}, * being mul_terms on two
    integer term maps.  Empty pieces are skipped; one Fraction is built per
    key of the result, whose parts share no key as each key has one weight.
    """
    ints, d = cleared(pieces)
    big = [dict.fromkeys(one.terms, 1)]
    out = dict(one.terms)
    den = 1
    for w in range(1, len(ints)):
        acc: dict = {}
        g = 1  # d^(k-1) (w-1)!/(w-k)!
        for k in range(1, w + 1):
            if ints[k] and big[w - k]:
                f = k * g
                for key, x in mul_terms(ints[k], big[w - k]).items():
                    acc[key] = acc[key] + f * x if key in acc else f * x
            g *= d * (w - k)
        big.append({key: x for key, x in acc.items() if x})
        den *= d * w
        out.update((key, Fraction(x, den)) for key, x in big[w].items())
    return one._like(out)
