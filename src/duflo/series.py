"""Truncated graded power series in weighted commuting variables.

A generator is a (name, weight) pair; a monomial is a sorted tuple of
generators and its weight is the sum of the generator weights.  Series are
truncated at a fixed total weight, with exact rational coefficients.
The Chern-variable generators c_k carry weight k, so the Todd class, its
square root, Chern characters, and Mukai vectors all live here.

The Todd class is produced from the generating series t/(1 - e^{-t})
through the elementary/power-sum conversion (Newton's identities), never
from a hard-coded table; the printed low-weight coefficients are test
targets, not inputs.
"""

from fractions import Fraction
from math import factorial

from .linalg import Q, parse_rational

Gen = tuple[str, int]
Monomial = tuple[Gen, ...]

MAX_WEIGHT = 16


class TruncationMismatch(Exception):
    pass


class NonUnitConstant(Exception):
    pass


class GradedSeries:
    __slots__ = ("trunc", "terms")

    def __init__(self, trunc: int, terms=None):
        self.trunc = trunc
        tidy: dict[Monomial, Fraction] = {}
        for mono, c in (terms or {}).items():
            c = parse_rational(c)
            if c == 0:
                continue
            mono = tuple(sorted(mono))
            if _weight(mono) > trunc:
                continue
            tidy[mono] = tidy.get(mono, Q(0)) + c
        self.terms = {m: c for m, c in tidy.items() if c != 0}

    # -- constructors --------------------------------------------------
    @classmethod
    def scalar(cls, trunc: int, value=1) -> "GradedSeries":
        return cls(trunc, {(): value})

    @classmethod
    def gen(cls, trunc: int, name: str, weight: int, coeff=1) -> "GradedSeries":
        return cls(trunc, {((name, weight),): coeff})

    # -- ring structure -------------------------------------------------
    def _check(self, other):
        if self.trunc != other.trunc:
            raise TruncationMismatch(f"{self.trunc} != {other.trunc}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedSeries.scalar(self.trunc, other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Q(0)) + c
        return GradedSeries(self.trunc, out)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedSeries.scalar(self.trunc, other)
        return self + other.scale(-1)

    def scale(self, c):
        c = parse_rational(c)
        return GradedSeries(self.trunc, {m: c * v for m, v in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: dict[Monomial, Fraction] = {}
        trunc = self.trunc
        right = sorted(
            ((_weight(m2), m2, c2) for m2, c2 in other.terms.items()),
            key=lambda t: t[0],
        )
        for m1, c1 in self.terms.items():
            room = trunc - _weight(m1)
            for w2, m2, c2 in right:
                if w2 > room:
                    break
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, Q(0)) + c1 * c2
        return GradedSeries(trunc, out)

    def __eq__(self, other):
        return (
            isinstance(other, GradedSeries)
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def constant(self) -> Fraction:
        return self.terms.get((), Q(0))

    def weight_part(self, w: int) -> "GradedSeries":
        return GradedSeries(
            self.trunc, {m: c for m, c in self.terms.items() if _weight(m) == w}
        )

    def coefficient(self, mono) -> Fraction:
        return self.terms.get(tuple(sorted(mono)), Q(0))

    # -- series functions -------------------------------------------------
    def inv(self) -> "GradedSeries":
        """Reciprocal of a series with constant term 1."""
        if self.constant() != 1:
            raise NonUnitConstant("inv needs constant term 1")
        a = [self.weight_part(w) for w in range(self.trunc + 1)]
        u = [GradedSeries.scalar(self.trunc)]
        for w in range(1, self.trunc + 1):
            acc = GradedSeries(self.trunc)
            for i in range(1, w + 1):
                acc = acc + a[i] * u[w - i]
            u.append(acc.scale(-1))
        return _total(u)

    def sqrt(self) -> "GradedSeries":
        """Square root with constant term 1, weight by weight."""
        if self.constant() != 1:
            raise NonUnitConstant("sqrt needs constant term 1")
        a = [self.weight_part(w) for w in range(self.trunc + 1)]
        s = [GradedSeries.scalar(self.trunc)]
        for w in range(1, self.trunc + 1):
            acc = a[w]
            for i in range(1, w):
                acc = acc - s[i] * s[w - i]
            s.append(acc.scale(Fraction(1, 2)))
        return _total(s)

    def exp(self) -> "GradedSeries":
        """Exponential of a series with zero constant term."""
        if self.constant() != 0:
            raise NonUnitConstant("exp needs zero constant term")
        acc = GradedSeries.scalar(self.trunc)
        power = GradedSeries.scalar(self.trunc)
        for k in range(1, self.trunc + 1):
            power = power * self
            if power.is_zero():
                break
            acc = acc + power.scale(Fraction(1, factorial(k)))
        return acc

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

    def substitute(self, mapping: dict) -> "GradedSeries":
        """Replace generators by whole series (name -> GradedSeries)."""
        acc = GradedSeries(self.trunc)
        for mono, c in self.terms.items():
            term = GradedSeries.scalar(self.trunc, c)
            for name, weight in mono:
                rep = mapping.get(name)
                if rep is None:
                    rep = GradedSeries.gen(self.trunc, name, weight)
                term = term * rep
            acc = acc + term
        return acc

    # -- canonical text -----------------------------------------------------
    def text(self) -> str:
        """Canonical sorted-monomial rendering, e.g. '1 + 1/2*c1 + 1/12*c1^2'."""
        if not self.terms:
            return "0"
        keyed = sorted(self.terms.items(), key=lambda mc: (_weight(mc[0]), mc[0]))
        chunks = []
        for mono, c in keyed:
            body = _mono_text(mono)
            mag = abs(c)
            if body == "1":
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            if not chunks:
                chunks.append(piece if c > 0 else f"-{piece}")
            else:
                chunks.append(("+ " if c > 0 else "- ") + piece)
        return " ".join(chunks)

    def to_obj(self):
        keyed = sorted(self.terms.items(), key=lambda mc: (_weight(mc[0]), mc[0]))
        return [
            {"monomial": _mono_text(m), "weight": _weight(m), "coeff": str(c)}
            for m, c in keyed
        ]

    def __repr__(self):
        return f"GradedSeries[N={self.trunc}]({self.text()})"


def _weight(mono: Monomial) -> int:
    return sum(w for _, w in mono)


def _mono_text(mono: Monomial) -> str:
    if not mono:
        return "1"
    runs = []
    for name, _ in mono:
        if runs and runs[-1][0] == name:
            runs[-1][1] += 1
        else:
            runs.append([name, 1])
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in runs)


def _total(pieces) -> GradedSeries:
    acc = GradedSeries(pieces[0].trunc)
    for p in pieces:
        acc = acc + p
    return acc


# ---------------------------------------------------------------------------
# symmetric-function machinery
# ---------------------------------------------------------------------------

def chern_gen(trunc: int, k: int, family: str = "c") -> GradedSeries:
    return GradedSeries.gen(trunc, f"{family}{k}", k)


def power_sums(trunc: int, family: str = "c") -> list[GradedSeries]:
    """p_1 .. p_trunc in the Chern generators, via Newton's identities."""
    e = [None] + [chern_gen(trunc, k, family) for k in range(1, trunc + 1)]
    p: list[GradedSeries] = [GradedSeries.scalar(trunc, 0)]
    for k in range(1, trunc + 1):
        acc = e[k].scale((-1) ** (k - 1) * k)
        for i in range(1, k):
            acc = acc + (e[i] * p[k - i]).scale((-1) ** (i - 1))
        p.append(acc)
    return p


def _todd_root_series(trunc: int) -> GradedSeries:
    """The one-variable generating series t/(1 - e^{-t}) up to the cutoff."""
    e = GradedSeries(trunc)
    for k in range(trunc + 1):
        e = e + GradedSeries(
            trunc, {(("t", 1),) * k: Fraction((-1) ** k, factorial(k + 1))}
        )
    return e.inv()


def todd(trunc: int, family: str = "c") -> GradedSeries:
    """Universal Todd polynomial in c_1 .. c_trunc."""
    if trunc < 0:
        raise ValueError("weight must be nonnegative")
    if trunc == 0:
        return GradedSeries.scalar(0)
    lq = _todd_root_series(trunc).log()
    p = power_sums(trunc, family)
    arg = GradedSeries(trunc)
    for k in range(1, trunc + 1):
        lk = lq.coefficient((("t", 1),) * k)
        if lk != 0:
            arg = arg + p[k].scale(lk)
    return arg.exp()


def sqrt_todd(trunc: int, family: str = "c") -> GradedSeries:
    return todd(trunc, family).sqrt()


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
