"""Truncated graded power series in weighted commuting variables.

A generator is a (name, weight) pair, weight >= 1.  A series is truncated
at total weight trunc <= 255, with exact rational coefficients; the Chern
generators c_k carry weight k, so the Todd class, its square root, Chern
characters, and Mukai vectors all live here.  A monomial is one int key:
its weight in the low 8 bits (WMASK) and, above them, an 8-bit exponent
field per generator, in the order generators are first seen (_GENS), so a
product of monomials is the sum of their keys.  A kept monomial's weight,
and so each exponent, is at most trunc <= 255: no field carries.  terms
decodes keys to sorted generator tuples.  Within one weight, tuple order
is descending exponent vectors in sorted generator order: at the first
generator g where two monomials differ, the one with more g has g where
the other has a later generator (equal weights keep either tuple from
being a prefix of the other).  _sorted sorts on those vectors.

Every class is a_0 + sum_k a_k p_k over the power sums p_k, which Newton's
identities give in the Chern generators: ch has a_0 = rank and a_k = 1/k!,
log Todd has a_0 = 0 and a_k = l_k, the coefficients of log(t/(1 - e^{-t}))
(never a hard-coded table: the printed low-weight coefficients are test
targets, not inputs).  Todd = exp(log Todd) and its square root is
exp(log Todd / 2), by sparse.graded_exp over the series product:
_mul_terms on the numerators, over both denominators.
"""

from operator import getitem, itemgetter, mul
from fractions import Fraction
from math import factorial, gcd

from .sparse import LinComb, graded_exp

Gen = tuple[str, int]

MAX_WEIGHT = 16
WMASK = 0xFF
_CODES: dict[Gen, int] = {}  # generator -> unit code: its weight plus a one in its field
_GENS: list[Gen] = []  # _GENS[j] has the exponent field at bits 8(j+1)..8(j+1)+7


class TruncationMismatch(Exception):
    pass


class NonUnitConstant(Exception):
    pass


class GradedSeries(LinComb):
    """Chern-variable series truncated at total weight trunc."""

    __slots__ = ("trunc",)
    _CONTEXT = ("trunc",)

    def __init__(self, trunc: int, terms=None):
        if not 0 <= trunc <= WMASK:
            raise ValueError(f"truncation {trunc} is outside 0..{WMASK}")
        self.trunc = trunc
        super().__init__(terms)

    def _key(self, mono):
        for gen in mono:
            w = gen[1]
            if type(w) is not int or w < 1:
                raise ValueError(f"generator {gen!r} needs a positive int weight")
        return sum(map(_code, mono)) if sum(map(itemgetter(1), mono)) <= self.trunc else None

    def _join(self, other):
        if isinstance(other, GradedSeries) and self.trunc != other.trunc:
            raise TruncationMismatch(f"{self.trunc} != {other.trunc}")
        return super()._join(other)

    # -- constructors --------------------------------------------------
    @classmethod
    def scalar(cls, trunc: int, value=1) -> "GradedSeries":
        return cls(trunc, {(): value})

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

    def weight_parts(self) -> list["GradedSeries"]:
        parts: list[dict] = [{} for _ in range(self.trunc + 1)]
        for m, x in self.num.items():
            parts[m & WMASK][m] = x
        return [self._like(p, self.den) for p in parts]

    def coefficient(self, mono) -> Fraction:
        """The coefficient of mono; 0 for a generator never seen, which stays unseen."""
        seen = all(g in _CODES for g in mono) and sum(map(itemgetter(1), mono)) <= self.trunc
        return Fraction(self.num.get(sum(map(_CODES.get, mono)), 0) if seen else 0, self.den)

    @property
    def terms(self) -> dict:
        """The coefficients as a fresh {sorted generator tuple: Fraction} dict."""
        return {_decode(m): c for m, c in super().terms.items()}

    # -- series functions -------------------------------------------------
    def exp(self) -> "GradedSeries":
        """Exponential of a series with zero constant term."""
        if self.coefficient(()) != 0:
            raise NonUnitConstant("exp needs zero constant term")
        return graded_exp(self.weight_parts(), GradedSeries.scalar(self.trunc), mul)

    # -- canonical text -----------------------------------------------------
    def text(self) -> str:
        """Canonical sorted-monomial rendering, e.g. '1 + 1/2*c1 + 1/12*c1^2'."""
        chunks = []
        for _, body, num, den in self._sorted():
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            piece = mag if body == "1" else body if mag == "1" else f"{mag}*{body}"
            if chunks:
                piece = ("+ " if num > 0 else "- ") + piece
            elif num < 0:
                piece = "-" + piece
            chunks.append(piece)
        return " ".join(chunks) or "0"

    def to_obj(self):
        return [
            {"monomial": m, "weight": w, "coeff": str(n) if d == 1 else f"{n}/{d}"}
            for w, m, n, d in self._sorted()
        ]

    def _sorted(self) -> list[tuple[int, str, int, int]]:
        """(weight, monomial text, numerator, denominator) of every term, the
        coefficient in lowest terms, by weight then by descending exponents
        in generator order: one bucket per weight, each sorted on its
        exponent bytes.  The text of each half of those is built once."""
        gens = sorted(_GENS)
        fields = [_GENS.index(g) + 1 for g in gens]
        get = itemgetter(*fields) if len(fields) > 1 else lambda b: [b[j] for j in fields]
        pieces = [("", n, *(f"{n}^{e}" for e in range(2, self.trunc // w + 1))) for n, w in gens]
        h, size, den = len(fields) // 2, len(_GENS) + 1, self.den
        buckets: list[list] = [[] for _ in range(self.trunc + 1)]
        for m, x in self.num.items():
            buckets[m & WMASK].append((bytes(get(m.to_bytes(size, "little"))), x))
        low, high, out = {}, {}, []
        for w, bucket in enumerate(buckets):
            bucket.sort(reverse=True)  # exponent bytes differ within one weight
            for e, x in bucket:
                lo, hi = e[:h], e[h:]
                a = low.get(lo)
                if a is None:
                    a = low[lo] = "*".join(filter(None, map(getitem, pieces, lo)))
                b = high.get(hi)
                if b is None:
                    b = high[hi] = "*".join(filter(None, map(getitem, pieces[h:], hi)))
                g = gcd(x, den)
                out.append((w, f"{a}*{b}" if a and b else a or b or "1", x // g, den // g))
        return out

    def __repr__(self):
        return f"GradedSeries[N={self.trunc}]({self.text()})"


def _code(gen: Gen) -> int:
    """The unit code of gen; a new generator gets the next field."""
    if gen not in _CODES:
        _GENS.append(gen)
        _CODES[gen] = (1 << 8 * len(_GENS)) + gen[1]
    return _CODES[gen]


def _decode(key: int) -> tuple[Gen, ...]:
    exps = key.to_bytes(len(_GENS) + 1, "little")[1:]
    return tuple(sorted(g for g, e in zip(_GENS, exps) for _ in range(e)))


def _mul_terms(left: dict, right: dict, trunc: int) -> dict:
    """Product of two term maps truncated at weight trunc; zero sums are kept."""
    right = sorted(((m2 & WMASK, m2, c2) for m2, c2 in right.items()), key=itemgetter(0))
    acc: dict[int, int] = {}
    for m1, c1 in left.items():
        room = trunc - (m1 & WMASK)
        for w2, m2, c2 in right:
            if w2 > room:
                break
            m = m1 + m2
            acc[m] = acc[m] + c1 * c2 if m in acc else c1 * c2
    return acc


# ---------------------------------------------------------------------------
# symmetric-function machinery
# ---------------------------------------------------------------------------

def power_sums(trunc: int, family: str = "c") -> list[GradedSeries]:
    """p_1 .. p_trunc in the Chern generators, via Newton's identities.

    p_k = (-1)^(k-1) k e_k + sum_{i<k} (-1)^(i-1) e_i p_{k-i}; each product
    with the generator e_i = c_i only adds the code of c_i to the keys of
    p_{k-i}, so all terms of p_k are added into one dict.  The coefficients
    are integers and are summed as ints.
    """
    zero = GradedSeries.scalar(trunc, 0)
    ints: list[dict] = [{}]
    for k in range(1, trunc + 1):
        acc = {_code((f"{family}{k}", k)): (-1) ** (k - 1) * k}
        for i in range(1, k):
            gen = _code((f"{family}{i}", i))
            for m, c in ints[k - i].items():
                if not i & 1:
                    c = -c
                m += gen
                acc[m] = acc[m] + c if m in acc else c
        ints.append(acc)
    return [zero._like(p) for p in ints]


def log_todd_coefficients(trunc: int) -> list[Fraction]:
    """[l_1, ..., l_trunc] with log(t/(1 - e^{-t})) = sum_k l_k t^k.

    q = (1 - e^{-t})/t = sum_k (-1)^k t^k/(k+1)! has log -sum_k l_k t^k,
    so q (log q)' = q' gives k l_k = -k q_k - sum_{0<j<k} j l_j q_{k-j}.
    Each sum starts at Fraction(0): an empty int sum over k is a float.
    """
    q = [Fraction((-1) ** k, factorial(k + 1)) for k in range(trunc + 1)]
    out = [Fraction(0)]
    for k in range(1, trunc + 1):
        out.append(-q[k] - sum((j * out[j] * q[k - j] for j in range(1, k)), Fraction(0)) / k)
    return out[1:]


def _power_sum_series(trunc: int, a0, coeffs: list, family: str = "c") -> GradedSeries:
    """a0 + sum_k coeffs[k-1] p_k, truncated at trunc, in family's generators."""
    p = power_sums(trunc, family)
    return sum(map(GradedSeries.scale, p[1:], coeffs), p[0] + a0)


def _log_todd(trunc: int) -> GradedSeries:
    """log Todd = sum_k l_k p_k."""
    return _power_sum_series(trunc, 0, log_todd_coefficients(trunc))


def todd(trunc: int) -> GradedSeries:
    """Universal Todd polynomial in c_1 .. c_trunc, as exp(log Todd)."""
    return _log_todd(trunc).exp()


def sqrt_todd(trunc: int) -> GradedSeries:
    """Square root of the Todd class, as exp(log Todd / 2)."""
    return _log_todd(trunc).scale(Fraction(1, 2)).exp()


def chern_character(rank: int, trunc: int, family: str = "c") -> GradedSeries:
    """rank + sum of power sums over k!, in the bundle's Chern generators."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    coeffs = [Fraction(1, factorial(k)) for k in range(1, trunc + 1)]
    return _power_sum_series(trunc, rank, coeffs, family)


def mukai_vector(rank: int, trunc: int) -> GradedSeries:
    """Chern character times the Todd square root.

    Bundle classes are printed as f1, f2, ... and the underlying variety's
    classes as c1, c2, ...; the two families are independent generators.
    """
    ch = chern_character(rank, trunc, family="f")
    return ch * sqrt_todd(trunc)
