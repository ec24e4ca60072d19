"""Finite rational combinations of keys, and one graded recursion.

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
constructor of each kind reads outside coefficients with parse_rational
and keys through the _key hook, which may raise or drop a key; arithmetic
results go through _like, which drops zero numerators and divides out the
common factor.

graded_exp and graded_power compute exp(a) and a^r, r rational, weight
by weight over any commutative graded product on which weight acts as a
derivation, from the pieces a_0, a_1, ... of a by weight.  Both run the
one recursion _graded, which forms no power of a, scales the pieces once
to integer combinations and multiplies those only.
"""

import re
from fractions import Fraction
from math import gcd, lcm

_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def quoted(value, limit: int = 80) -> str:
    """repr(value) cut to its first limit characters, so that error text
    about an input value stays short however large the value is."""
    text = repr(value)
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def parse_rational(value) -> Fraction:
    """Accept ints, Fractions and [+-]p[/q] ASCII digit strings.

    A malformed string raises ValueError; anything else, a bool among
    them (JSON true is not a coefficient), raises TypeError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise ValueError(f"not a p/q rational literal: {quoted(value)}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {quoted(value)}") from None
    raise TypeError(f"not an exact rational literal: {quoted(value)}")


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


def graded_exp(pieces: list, one: LinComb, mul) -> LinComb:
    """exp(a) for a = sum of graded pieces, pieces[0] zero, one the unit:
    w e_w = sum_{k=1..w} k a_k e_{w-k}, the weight-w part of E' = A' E."""
    return _graded(pieces, one, mul, lambda k, w: k, 1)


def graded_power(pieces: list, mul, r: Fraction) -> LinComb:
    """a^r for a = sum of graded pieces, pieces[0] the unit, r = p/q.

    f_0 = 1 and w f_w = sum_{k=1..w} ((r + 1) k - w) a_k f_{w-k}, the
    weight-w part of A F' = r A' F (J. C. P. Miller); _graded takes q times
    each coefficient, (p + q) k - q w.
    """
    p, q = r.numerator, r.denominator
    return _graded(pieces, pieces[0], mul, lambda k, w: (p + q) * k - q * w, q)


def _graded(pieces: list, one: LinComb, mul, coeff, q: int) -> LinComb:
    """f_0 = one and q w f_w = sum_{k=1..w} coeff(k, w) a_k f_{w-k}.

    With d the lcm of the pieces' denominators and D = q d, A_k = d a_k is
    an integer combination and so is F_w = D^w w! f_w =
    sum_k coeff(k, w) D^(k-1) (w-1)!/(w-k)! A_k F_{w-k}, each product
    taken by mul.  Empty pieces and zero coefficients are skipped.  The
    parts share no key, as each key has one weight, so the result is their
    numerators over the last D^w w!.
    """
    d = lcm(*(p.den for p in pieces))
    step = q * d
    ints = [p.scale(d) for p in pieces]
    big, dens = [one], [1]
    for w in range(1, len(ints)):
        acc: dict = {}
        g = 1  # D^(k-1) (w-1)!/(w-k)!
        for k in range(1, w + 1):
            f = coeff(k, w) * g
            if f and ints[k].num and big[w - k].num:
                for key, x in mul(ints[k], big[w - k]).num.items():
                    acc[key] = acc[key] + f * x if key in acc else f * x
            g *= step * (w - k)
        big.append(one._like(acc))
        dens.append(dens[-1] * step * w)
    top = dens[-1]
    return one._like({k: x * (top // dw) for e, dw in zip(big, dens) for k, x in e.num.items()}, top)
