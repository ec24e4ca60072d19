"""Truncated graded power series in weighted commuting variables.

A generator is a (name, weight) pair; a monomial is a sorted tuple of
generators and its weight is the sum of the generator weights.  Series are
truncated at a fixed total weight, with exact rational coefficients.
The Chern-variable generators c_k carry weight k, so the Todd class, its
square root, Chern characters, and Mukai vectors all live here.

The Todd class is produced from the generating series t/(1 - e^{-t})
through the elementary/power-sum conversion (Newton's identities), never
from a hard-coded table; the printed low-weight coefficients are test
targets, not inputs.  With l_k the coefficients of log(t/(1 - e^{-t})),
Todd = exp(L) and its square root is exp(L/2) for L = sum_k l_k p_k; no
series square root is taken.  The l_k are read from -log((1 - e^{-t})/t),
so no series inverse is taken either.  exp is sparse.graded_exp over the
series product, which multiplies the two numerator maps in Z (_mul_terms)
over the product of the two denominators.
Newton's identity for p_k adds each e_i p_{k-i} by appending the
generator c_i to every monomial of p_{k-i}, with no series product.
"""

import operator
from operator import itemgetter
from fractions import Fraction
from math import factorial, gcd

from .sparse import LinComb, graded_exp, unit_inverse, unit_sqrt

Gen = tuple[str, int]
Monomial = tuple[Gen, ...]

MAX_WEIGHT = 16


class TruncationMismatch(Exception):
    pass


class NonUnitConstant(Exception):
    pass


class GradedSeries(LinComb):
    """Chern-variable series truncated at total weight trunc."""

    __slots__ = ("trunc",)
    _CONTEXT = ("trunc",)

    def __init__(self, trunc: int, terms=None):
        self.trunc = trunc
        super().__init__(terms)

    def _key(self, mono):
        for gen in mono:
            w = gen[1]
            if type(w) is not int or w < 1:
                raise ValueError(f"generator {gen!r} needs a positive int weight")
        mono = tuple(sorted(mono))
        return mono if _weight(mono) <= self.trunc else None

    def _join(self, other):
        if isinstance(other, GradedSeries) and self.trunc != other.trunc:
            raise TruncationMismatch(f"{self.trunc} != {other.trunc}")
        return super()._join(other)

    # -- constructors --------------------------------------------------
    @classmethod
    def scalar(cls, trunc: int, value=1) -> "GradedSeries":
        return cls(trunc, {(): value})

    @classmethod
    def gen(cls, trunc: int, name: str, weight: int, coeff=1) -> "GradedSeries":
        return cls(trunc, {((name, weight),): coeff})

    # -- ring structure -------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedSeries.scalar(self.trunc, other)
        return super().__add__(other)

    def __mul__(self, other):
        """Truncated product: the numerators multiplied in Z, over both denominators."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._join(other)
        return self._like(_mul_terms(self.num, other.num, self.trunc), self.den * other.den)

    def constant(self) -> Fraction:
        return self.coefficient(())

    def weight_parts(self) -> list["GradedSeries"]:
        parts: list[dict] = [{} for _ in range(self.trunc + 1)]
        for m, x in self.num.items():
            parts[_weight(m)][m] = x
        return [self._like(p, self.den) for p in parts]

    def coefficient(self, mono) -> Fraction:
        return Fraction(self.num.get(tuple(sorted(mono)), 0), self.den)

    # -- series functions -------------------------------------------------
    def inv(self) -> "GradedSeries":
        """Reciprocal of a series with constant term 1."""
        if self.constant() != 1:
            raise NonUnitConstant("inv needs constant term 1")
        return unit_inverse(self.weight_parts(), operator.mul)

    def sqrt(self) -> "GradedSeries":
        """Square root with constant term 1, weight by weight."""
        if self.constant() != 1:
            raise NonUnitConstant("sqrt needs constant term 1")
        return unit_sqrt(self.weight_parts(), operator.mul)

    def exp(self) -> "GradedSeries":
        """Exponential of a series with zero constant term."""
        if self.constant() != 0:
            raise NonUnitConstant("exp needs zero constant term")
        return graded_exp(self.weight_parts(), GradedSeries.scalar(self.trunc), operator.mul)

    def log(self) -> "GradedSeries":
        """Logarithm of a series with constant term 1."""
        if self.constant() != 1:
            raise NonUnitConstant("log needs constant term 1")
        x = self - 1
        acc = GradedSeries(self.trunc)
        power = GradedSeries.scalar(self.trunc)
        for k in range(1, self.trunc + 1):
            power = power * x
            if power.is_zero():
                break
            acc = acc + power.scale(Fraction((-1) ** (k - 1), k))
        return acc

    # -- canonical text -----------------------------------------------------
    def text(self) -> str:
        """Canonical sorted-monomial rendering, e.g. '1 + 1/2*c1 + 1/12*c1^2'."""
        chunks = []
        for _, mono, num, den in self._sorted():
            body = _mono_text(mono)
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if body == "1":
                piece = mag
            elif mag == "1":
                piece = body
            else:
                piece = f"{mag}*{body}"
            if chunks:
                piece = ("+ " if num > 0 else "- ") + piece
            elif num < 0:
                piece = "-" + piece
            chunks.append(piece)
        return " ".join(chunks) or "0"

    def to_obj(self):
        return [
            {"monomial": _mono_text(m), "weight": w, "coeff": str(n) if d == 1 else f"{n}/{d}"}
            for w, m, n, d in self._sorted()
        ]

    def _sorted(self) -> list[tuple[int, Monomial, int, int]]:
        """(weight, monomial, numerator, denominator) of every term, the
        coefficient in lowest terms, by weight then monomial."""
        den = self.den
        out = []
        for w, m, x in sorted((_weight(m), m, x) for m, x in self.num.items()):
            g = gcd(x, den)
            out.append((w, m, x // g, den // g))
        return out

    def __repr__(self):
        return f"GradedSeries[N={self.trunc}]({self.text()})"


def _weight(mono: Monomial) -> int:
    return sum(map(itemgetter(1), mono))


def _mul_terms(left: dict, right: dict, trunc: int) -> dict:
    """Product of two term maps truncated at weight trunc; zero sums are kept."""
    right = sorted(((_weight(m2), m2, c2) for m2, c2 in right.items()), key=itemgetter(0))
    acc: dict[Monomial, int] = {}
    for m1, c1 in left.items():
        room = trunc - _weight(m1)
        for w2, m2, c2 in right:
            if w2 > room:
                break
            m = tuple(sorted(m1 + m2))
            acc[m] = acc[m] + c1 * c2 if m in acc else c1 * c2
    return acc


def _mono_text(mono: Monomial) -> str:
    """Runs of equal generator names as powers, e.g. 'c1^2*c3'; '1' if empty."""
    if not mono:
        return "1"
    out = []
    name, e = mono[0][0], 0
    for gen, _ in mono:
        if gen == name:
            e += 1
            continue
        out.append(name if e == 1 else f"{name}^{e}")
        name, e = gen, 1
    out.append(name if e == 1 else f"{name}^{e}")
    return "*".join(out)


# ---------------------------------------------------------------------------
# symmetric-function machinery
# ---------------------------------------------------------------------------

def power_sums(trunc: int, family: str = "c") -> list[GradedSeries]:
    """p_1 .. p_trunc in the Chern generators, via Newton's identities.

    p_k = (-1)^(k-1) k e_k + sum_{i<k} (-1)^(i-1) e_i p_{k-i}; each product
    with the generator e_i = c_i only appends c_i to the monomials of
    p_{k-i}, so all terms of p_k are added into one dict.  The coefficients
    are integers and are summed as ints.
    """
    ints: list[dict] = [{}]
    for k in range(1, trunc + 1):
        acc = {((f"{family}{k}", k),): (-1) ** (k - 1) * k}
        for i in range(1, k):
            gen = (f"{family}{i}", i)
            for m, c in ints[k - i].items():
                if not i & 1:
                    c = -c
                m = tuple(sorted(m + (gen,)))
                acc[m] = acc[m] + c if m in acc else c
        ints.append(acc)
    zero = GradedSeries.scalar(trunc, 0)
    return [zero._like(p) for p in ints]


def _log_todd(trunc: int, family: str) -> GradedSeries:
    """log Todd = sum_k l_k p_k, l_k the coefficients of -log((1 - e^{-t})/t)."""
    if trunc < 0:
        raise ValueError("weight must be nonnegative")
    t = ("t", 1)
    lq = GradedSeries(
        trunc, {(t,) * k: Fraction((-1) ** k, factorial(k + 1)) for k in range(trunc + 1)}
    ).log()
    p = power_sums(trunc, family)
    return sum((p[k].scale(-lq.coefficient((t,) * k)) for k in range(1, trunc + 1)), p[0])


def todd(trunc: int, family: str = "c") -> GradedSeries:
    """Universal Todd polynomial in c_1 .. c_trunc, as exp(log Todd)."""
    return _log_todd(trunc, family).exp()


def sqrt_todd(trunc: int, family: str = "c") -> GradedSeries:
    """Square root of the Todd class, as exp(log Todd / 2)."""
    return _log_todd(trunc, family).scale(Fraction(1, 2)).exp()


def chern_character(rank: int, trunc: int, family: str = "c") -> GradedSeries:
    """rank + sum of power sums over k!, in the bundle's Chern generators."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    acc = GradedSeries.scalar(trunc, rank)
    if trunc == 0:
        return acc
    p = power_sums(trunc, family)
    for k in range(1, trunc + 1):
        acc = acc + p[k].scale(Fraction(1, factorial(k)))
    return acc


def mukai_vector(rank: int, trunc: int) -> GradedSeries:
    """Chern character times the Todd square root.

    Bundle classes are printed as f1, f2, ... and the underlying variety's
    classes as c1, c2, ...; the two families are independent generators.
    """
    ch = chern_character(rank, trunc, family="f")
    return ch * sqrt_todd(trunc, family="c")
