"""Finite rational combinations of keys, and the graded unit recursions.

LinComb is the one exact representation of a finite combination: integer
numerators num = {key: int} over one denominator den > 0, kept canonical
(no zero numerator, and gcd(den, every numerator) = 1), so two equal
combinations have equal num and den.  terms is a read-only {key: Fraction}
view for printing, witnesses and coefficient reads; arithmetic reads num
and den only.  Tensor words and symmetric monomials (pbw), exterior terms
(hodge) and Chern monomials (series) subclass it, adding only how a key is
normalised, their context (a model, a truncation), their products and
their printing.  A product of two combinations is the product of their
numerator maps over the product of their denominators.  The public
constructor of each kind parses outside input through the _key hook,
which may raise or drop a key; arithmetic results go through _like, which
drops zero numerators and divides out the common factor.

unit_inverse, unit_sqrt and graded_exp compute 1/a, sqrt(a) and exp(a)
weight by weight over any commutative graded product, from the pieces
a_0, a_1, ... of a by weight.  In each, the weight-w part of the result is
a sum of products of lower-weight parts, so no power of a is ever formed.
graded_exp scales its pieces once to integer combinations and multiplies
those only.
"""

from fractions import Fraction
from math import gcd, lcm

from .linalg import parse_rational


class LinComb:
    """Finite map from normalised keys to nonzero rationals, as num / den.

    Subclasses list their context attributes in _CONTEXT and set them
    before calling LinComb.__init__, because _key may read them.
    """

    __slots__ = ("num", "den")
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
        tidy = {k: c for k, c in tidy.items() if c}
        # over the lcm of reduced denominators, the numerators share no factor with it
        self.den = lcm(*(c.denominator for c in tidy.values()))
        self.num = {k: c.numerator * (self.den // c.denominator) for k, c in tidy.items()}

    def _key(self, key):
        """Canonical form of an outside key; None drops the term."""
        return key

    def _like(self, num: dict, den: int = 1) -> "LinComb":
        """Same kind and context as self, num / den from canonical keys, den > 0."""
        out = object.__new__(type(self))
        for name in self._CONTEXT:
            setattr(out, name, getattr(self, name))
        num = {k: x for k, x in num.items() if x}
        g = gcd(den, *num.values()) if den != 1 else 1
        if g != 1:
            num = {k: x // g for k, x in num.items()}
            den //= g
        out.num, out.den = num, den
        return out

    @property
    def terms(self) -> dict:
        """The coefficients as a fresh {key: Fraction} dict."""
        return {k: Fraction(x, self.den) for k, x in self.num.items()}

    def _join(self, other) -> "LinComb":
        """Check that other combines with self; return the context donor."""
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        return self

    def __add__(self, other):
        base = self._join(other)
        den = lcm(self.den, other.den)
        f = den // other.den
        out = {k: x * (den // self.den) for k, x in self.num.items()}
        for k, x in other.num.items():
            out[k] = out[k] + f * x if k in out else f * x
        return base._like(out, den)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = parse_rational(c)
        return self._like({k: c.numerator * x for k, x in self.num.items()}, self.den * c.denominator)

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and all(getattr(self, n) == getattr(other, n) for n in self._CONTEXT)
            and self.den == other.den
            and self.num == other.num
        )

    def is_zero(self) -> bool:
        return not self.num

    def _word(self, key) -> str:
        return str(key)

    def __repr__(self):
        body = " + ".join(f"{c}*{self._word(k)}" for k, c in sorted(self.terms.items()))
        return f"{type(self).__name__}({body or 0})"


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


def graded_exp(pieces: list, one: LinComb, mul) -> LinComb:
    """exp(a) for a = sum of graded pieces, pieces[0] zero, one the unit.

    e_0 = one and w e_w = sum_{k=1..w} k a_k e_{w-k}, the weight-w part of
    E' = A' E.  With d the lcm of the pieces' denominators, A_k = d a_k is
    an integer combination and so is E_w = d^w w! e_w =
    sum_k k d^(k-1) (w-1)!/(w-k)! A_k E_{w-k}, each product taken by mul.
    Empty pieces are skipped.  The parts share no key, as each key has one
    weight, so the result is their numerators over the last d^w w!.
    """
    d = lcm(*(p.den for p in pieces))
    ints = [p.scale(d) for p in pieces]
    big, dens = [one], [1]
    for w in range(1, len(ints)):
        acc: dict = {}
        g = 1  # d^(k-1) (w-1)!/(w-k)!
        for k in range(1, w + 1):
            if ints[k].num and big[w - k].num:
                f = k * g
                for key, x in mul(ints[k], big[w - k]).num.items():
                    acc[key] = acc[key] + f * x if key in acc else f * x
            g *= d * (w - k)
        big.append(one._like(acc))
        dens.append(dens[-1] * d * w)
    top = dens[-1]
    return one._like({k: x * (top // dw) for e, dw in zip(big, dens) for k, x in e.num.items()}, top)
