"""Symmetrization diagram over a Lie algebra, evaluated in End(V).

Elements of the tensor algebra are finite rational combinations of words in
basis indices; symmetric elements are combinations of sorted monomials.
Two maps send a word to an operator on a representation V:

  * theta composes action matrices, so the word (i1, ..., ik) becomes the
    product rho(x_{i1}) ... rho(x_{ik}) (rightmost letter acts first);
  * phi contracts the iterated coaction V -> V (x) g*^(x)k against the
    word, with the innermost (first applied) coaction factor paired with
    the last letter.

Both conventions together make phi and theta agree on every word, which is
exactly the adjunction bookkeeping the diagram check exercises.  The
enveloping algebra is never materialized: everything is compared inside
End(V), and the symmetrization map carries the 1/n! permutation sum.

symmetrize, theta and phi evaluate that sum word by word, over all n!
permutations.  The diagram check evaluates the same sum through
SymImages instead: the n! permutations of a monomial m hit each distinct
word of m exactly prod(m_i!) times, and the sum W(m) of the distinct words
obeys W(m) = sum over letters i of m of x_i W(m - e_i), so each route
memoizes the image of W on sorted monomials, one entry per monomial.

The tables are integer matrices.  One lcm d of every denominator in the
action matrices and the coaction clears both routes' sources, d*rho(x_i)
and d times the coaction, and each table entry is d^|m| times the image
of W(m).  The check compares and tests centrality in Z; the Fraction
matrices a report carries are built from the tables only when read.

The derivations ad(x_i) of the symmetric algebra run in Z as well: they
read LieAlgebra.cleared_brackets, the brackets times one lcm delta of the
structure-constant denominators.  invariants_s takes the kernel of
delta * ad, which has the same kernel as ad, from integer images, and
derivation_apply applies the table to its argument's numerators, so the
result is those integers over the argument's denominator times delta.

adjunction_check compares the coaction LambdaMap(rep).data entry by entry
with the bilinear action map (g, o, j) -> rho(x_g)[o, j] read from the
action matrices; no matrix is formed.

phi and the phi table are deliberately written with raw index loops over
the coaction rather than the matrix backend, and the theta table with its
own integer product, so the two diagram paths share no arithmetic code.
"""

import itertools
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm, prod

from .kernels import matmul_int
from .lie import LieAlgebra, Representation
from .linalg import Matrix, Q, kernel_of_images
from .sparse import LinComb

Word = tuple[int, ...]
SymMonomial = tuple[int, ...]  # sorted ascending


class TensorElement(LinComb):
    """Finite map from words to rational coefficients, zeros dropped."""

    __slots__ = ()

    def _key(self, w):
        return tuple(int(i) for i in w)

    @classmethod
    def word(cls, w, coeff=1) -> "TensorElement":
        return cls({tuple(w): coeff})

    def swap_letters(self, pos: int) -> "TensorElement":
        """Transpose letters pos and pos+1 in every word (symmetry probe)."""
        out = {}
        for w, x in self.num.items():
            if len(w) > pos + 1:
                w = w[:pos] + (w[pos + 1], w[pos]) + w[pos + 2:]
            out[w] = out.get(w, 0) + x
        return self._like(out, self.den)


class SymElement(LinComb):
    """Finite map from sorted monomials to rational coefficients."""

    __slots__ = ()

    def _key(self, m):
        return tuple(sorted(int(i) for i in m))

    @classmethod
    def monomial(cls, m, coeff=1) -> "SymElement":
        return cls({tuple(m): coeff})

    def __mul__(self, other: "SymElement") -> "SymElement":
        self._join(other)
        out = {}
        for m1, x1 in self.num.items():
            for m2, x2 in other.num.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + x1 * x2
        return self._like(out, self.den * other.den)

    def describe(self, alg: LieAlgebra) -> str:
        if not self.num:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(alg.labels[i] for i in m) or "1"
            parts.append(f"{c}*{mono}")
        return " + ".join(parts)



def symmetrize(s) -> TensorElement:
    """The 1/n! full permutation sum, monomial by monomial.

    Accepts a monomial tuple or a SymElement.  Repeated letters are summed
    with multiplicity, exactly as the n! permutation terms dictate.
    """
    if isinstance(s, tuple):
        s = SymElement.monomial(s)
    top = max(map(len, s.num), default=0)
    out: dict[Word, int] = {}
    for m, x in s.num.items():
        share = x * (factorial(top) // factorial(len(m)))
        for perm in itertools.permutations(m):
            out[perm] = out.get(perm, 0) + share
    return TensorElement()._like(out, s.den * factorial(top))


class LambdaMap:
    """The representation reshaped as a coaction V -> V (x) g*.

    data[out][in][g] is the matrix entry of rho(x_g); contracting the
    g*-slot with x_i reproduces rho(x_i) by construction, and
    adjunction_check re-derives the reshape from the bilinear action map.
    """

    __slots__ = ("rep", "data")

    def __init__(self, rep: Representation):
        dv, n = rep.dimV, rep.algebra.dim
        self.rep = rep
        self.data = tuple(
            tuple(
                tuple(rep.matrices[g][o, i] for g in range(n)) for i in range(dv)
            )
            for o in range(dv)
        )


def theta(rep: Representation, t: TensorElement) -> Matrix:
    """Word-to-operator map through composition of action matrices."""
    acc = Matrix.zeros(rep.dimV, rep.dimV)
    ident = Matrix.identity(rep.dimV)
    for w, x in t.num.items():
        m = ident
        for letter in w:
            m = m @ rep.matrices[letter]
        acc = acc + m.scale(x)
    return acc.scale(Fraction(1, t.den))


def phi(rep: Representation, t: TensorElement) -> Matrix:
    """Word-to-operator map through iterated coaction contraction.

    Each word's entry table starts from the identity and contracts the
    coaction once per letter, last letter first, with plain index sums (no
    matrix backend), so the innermost coaction factor meets the last letter.
    """
    dv = rep.dimV
    lam = LambdaMap(rep).data
    acc = [[Q(0)] * dv for _ in range(dv)]
    for w, x in t.num.items():
        table = [[Q(1) if o == i else Q(0) for i in range(dv)] for o in range(dv)]
        for g in reversed(w):
            nxt = []
            for o in range(dv):
                row = []
                for i in range(dv):
                    s = Q(0)
                    for mid in range(dv):
                        a = lam[o][mid][g]
                        if a != 0:
                            s += a * table[mid][i]
                    row.append(s)
                nxt.append(row)
            table = nxt
        for o in range(dv):
            for i in range(dv):
                v = table[o][i]
                if v != 0:
                    acc[o][i] += x * v
    return Matrix(acc).scale(Fraction(1, t.den))


def _splits(m: SymMonomial):
    """(letter, m with one copy of letter removed) for each distinct letter."""
    for pos, letter in enumerate(m):
        if pos == 0 or m[pos - 1] != letter:
            yield letter, m[:pos] + m[pos + 1:]


def _repeats(m: SymMonomial) -> int:
    """prod(m_i!): how often the d! permutations of m give each distinct word."""
    return prod(map(factorial, Counter(m).values()))


class SymImages:
    """Both routes' images of symmetric elements, memoized per monomial, in Z.

    d is the lcm of every denominator in the action matrices and in the
    coaction, so each route clears its own source exactly: theta reads the
    integer matrices R_i = d*rho(x_i), phi the coaction entries times d.
    theta_table[m] is d^|m| theta(W(m)), where W(m) is the sum of the
    distinct words of the sorted monomial m, and phi_table[m] is
    d^|m| phi(W(m)); both are tuples of int rows.  Each is filled by
    W(m) = sum_i x_i W(m - e_i) on its own route: theta multiplies by R_i
    through kernels.matmul_int, phi contracts the coaction with index
    loops.  A degree-D sweep over n letters stores at most C(n+D, D)
    entries per table.  check_pbw_diagram keeps one on each representation
    it sees, so every check on that representation shares the tables.

    theta(s) and phi(s) turn the tables back into the Fraction matrices
    theta(rep, symmetrize(s)) and phi(rep, symmetrize(s)); only reports
    that are read call them.
    """

    __slots__ = ("rep", "d", "actions", "lam", "theta_table", "phi_table")

    def __init__(self, rep: Representation):
        dv = rep.dimV
        lam = LambdaMap(rep).data
        d = lcm(
            *(x.denominator for m in rep.matrices for row in m.entries for x in row),
            *(x.denominator for plane in lam for cell in plane for x in cell),
        )
        self.rep = rep
        self.d = d
        self.actions = tuple(
            tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in m.entries)
            for m in rep.matrices
        )
        self.lam = tuple(
            tuple(tuple(x.numerator * (d // x.denominator) for x in cell) for cell in plane)
            for plane in lam
        )
        ident = tuple(tuple(int(o == i) for i in range(dv)) for o in range(dv))
        self.theta_table: dict[SymMonomial, tuple] = {(): ident}
        self.phi_table: dict[SymMonomial, tuple] = {(): ident}

    def theta_words(self, m: SymMonomial) -> tuple:
        got = self.theta_table.get(m)
        if got is None:
            terms = [
                matmul_int(self.actions[letter], self.theta_words(rest))
                for letter, rest in _splits(m)
            ]
            got = self.theta_table[m] = tuple(
                tuple(map(sum, zip(*rows))) for rows in zip(*terms)
            )
        return got

    def phi_words(self, m: SymMonomial) -> tuple:
        got = self.phi_table.get(m)
        if got is None:
            dv, lam = self.rep.dimV, self.lam
            acc = [[0] * dv for _ in range(dv)]
            for g, rest in _splits(m):
                table = self.phi_words(rest)
                for o in range(dv):
                    row = acc[o]
                    for mid in range(dv):
                        a = lam[o][mid][g]
                        if a:
                            for i, v in enumerate(table[mid]):
                                if v:
                                    row[i] += a * v
            got = self.phi_table[m] = tuple(tuple(row) for row in acc)
        return got

    def weights(self, s: SymElement) -> tuple[list, int]:
        """Integers k_m and a scale > 0 with k_m / scale = c_m prod(m_i!) / (|m|! d^|m|).

        Then theta(rep, symmetrize(s)) is sum_m k_m theta_table[m] / scale,
        and the same holds for phi.  With c_m = x_m / den and t the top
        degree, scale = den t! d^t and k_m = x_m prod(m_i!) t!/|m|! d^(t-|m|).
        """
        top = max(map(len, s.num), default=0)
        weights = [
            (m, x * _repeats(m) * (factorial(top) // factorial(len(m))) * self.d ** (top - len(m)))
            for m, x in s.num.items()
        ]
        return weights, s.den * factorial(top) * self.d**top

    def theta_sum(self, weights: list) -> tuple:
        """sum_m k_m theta_table[m] over the (m, k_m) of weights."""
        dv = self.rep.dimV
        acc = ((0,) * dv,) * dv
        for m, k in weights:
            acc = tuple(
                tuple(x + k * y for x, y in zip(ra, rb))
                for ra, rb in zip(acc, self.theta_words(m))
            )
        return acc

    def phi_sum(self, weights: list) -> tuple:
        """sum_m k_m phi_table[m] over the (m, k_m) of weights."""
        dv = self.rep.dimV
        acc = [[0] * dv for _ in range(dv)]
        for m, k in weights:
            table = self.phi_words(m)
            for o in range(dv):
                for i in range(dv):
                    v = table[o][i]
                    if v:
                        acc[o][i] += k * v
        return tuple(tuple(row) for row in acc)

    def theta(self, s: SymElement) -> Matrix:
        """theta(rep, symmetrize(s)), from the theta table."""
        weights, scale = self.weights(s)
        return Matrix.over(self.theta_sum(weights), scale, self.rep.dimV)

    def phi(self, s: SymElement) -> Matrix:
        """phi(rep, symmetrize(s)), from the phi table."""
        weights, scale = self.weights(s)
        return Matrix.over(self.phi_sum(weights), scale, self.rep.dimV)


def _derive(brackets: tuple, terms: dict) -> dict:
    """delta * ad(x_i) on an integer combination of monomials, in Z.

    brackets is LieAlgebra.cleared_brackets[i] and terms maps sorted
    monomials to ints; returns {monomial: int}, zeros dropped.  ad(x_i) is
    a derivation, so each distinct letter of m is replaced once by its
    cleared bracket, weighted by the letter's multiplicity in m.
    """
    out: dict[SymMonomial, int] = {}
    for m, a in terms.items():
        for letter, rest in _splits(m):
            row = brackets[letter]
            if not row:
                continue
            scale = a * m.count(letter)
            for k, c in row:
                mono = tuple(sorted(rest + (k,)))
                out[mono] = out.get(mono, 0) + scale * c
    return {m: v for m, v in out.items() if v}


def derivation_apply(alg: LieAlgebra, i: int, s: SymElement) -> SymElement:
    """Extend ad(x_i) to symmetric elements as a derivation.

    The integer table alg.cleared_brackets[i] is applied to the numerators
    of s, which gives ad(x_i)(s) in Z over s.den * alg.delta.
    """
    return s._like(_derive(alg.cleared_brackets[i], s.num), s.den * alg.delta)


def sym_basis(dim: int, degree: int) -> list[SymMonomial]:
    return list(itertools.combinations_with_replacement(range(dim), degree))


def invariants_s(alg: LieAlgebra, degree: int) -> list[SymElement]:
    """Basis of the invariant subspace of degree-d symmetric elements.

    The exact nullspace of the derivation action of every basis element.
    Each monomial's image is read straight from the integer table
    alg.cleared_brackets and keyed by (letter, image monomial); it is
    delta * ad(x_i) rather than ad(x_i), which has the same kernel, so the
    images are ints, and each kernel vector, integers over one
    denominator, becomes a SymElement without a Fraction.
    The CLI's lie-invariant-annihilation suite applies every derivation to
    each returned element and reports any that survives.
    """
    if degree == 0:
        return [SymElement({(): 1})]
    basis = sym_basis(alg.dim, degree)
    images = []
    for m in basis:
        img = {}
        for i, brackets in enumerate(alg.cleared_brackets):
            for mono, c in _derive(brackets, {m: 1}).items():
                img[(i, mono)] = c
        images.append(img)
    zero = SymElement()
    return [
        zero._like({basis[c]: x for c, x in num.items()}, den)
        for num, den in kernel_of_images(images)
    ]


class DiagramReport:
    """One diagram check: equal and central are decided in Z.

    path_theta and path_contract are the two routes' images of the element
    as Fraction matrices, built from the integer tables when first read.
    central is None unless the check asked for it.
    """

    def __init__(self, images: SymImages, element: SymElement, equal: bool, central):
        self.images = images
        self.element = element
        self.equal = equal
        self.central: bool | None = central

    @cached_property
    def path_theta(self) -> Matrix:
        return self.images.theta(self.element)

    @cached_property
    def path_contract(self) -> Matrix:
        return self.images.phi(self.element)


def check_pbw_diagram(
    rep: Representation, s: SymElement, check_central: bool = False
) -> DiagramReport:
    """Compare the two routes from a symmetric element to End(V).

    Route one symmetrizes and composes matrices (theta); route two
    symmetrizes and contracts iterated coactions (phi).  Exact equality is
    the commutativity of the square.  With check_central=True the report
    also records whether the image commutes with every action matrix,
    which is expected when s is invariant.

    The 1/n! sum is evaluated as sum_m c_m (prod(m_i!)/n!) W(m), where W(m)
    is the sum of the distinct words of m, from the integer tables of the
    SymImages kept on rep (built on the first check of rep), which hold
    d^|m| times each route's image of W(m) for one common denominator d.
    A one-term s = c m compares theta_table[m] with phi_table[m]: both
    routes carry the same nonzero scale c prod(m_i!) / (|m|! d^|m|).  A
    longer s combines each route's table entries with the integer weights
    of SymImages.weights, over one positive scale.  Centrality is decided
    on phi's integer image B as B R_i == R_i B for R_i = d rho(x_i).  The
    routes share only the weights, the splitting of m into (i, m - e_i)
    and d, all checked against symmetrize in the tests: theta's table is
    built from integer matrix products and phi's from coaction index
    loops, so a fault in either route's arithmetic shows as a difference.
    """
    images = rep._sym_images
    if images is None:
        images = rep._sym_images = SymImages(rep)
    if len(s.num) == 1:
        (m,) = s.num
        a, b = images.theta_words(m), images.phi_words(m)
    else:
        weights, _ = images.weights(s)
        a, b = images.theta_sum(weights), images.phi_sum(weights)
    central = None
    if check_central:
        central = all(matmul_int(b, r) == matmul_int(r, b) for r in images.actions)
    return DiagramReport(images, s, a == b, central)


class AdjunctionReport:
    __slots__ = ("equal", "failures")

    def __init__(self, equal: bool, failures: list[int]):
        self.equal = equal
        self.failures = failures


def adjunction_check(rep: Representation) -> AdjunctionReport:
    """Re-derive the coaction from the bilinear action map and compare.

    The action g (x) V -> V is the bilinear map (g, o, j) -> rho(x_g)[o, j],
    read straight from the action matrices; reshaping it along the
    adjunction must give LambdaMap(rep).data[o][j][g] entry for entry.
    failures lists each g whose contraction with the coaction differs
    from rho(x_g).
    """
    data = LambdaMap(rep).data
    failures = [
        g
        for g, m in enumerate(rep.matrices)
        if any(
            tuple(cell[g] for cell in plane) != row
            for plane, row in zip(data, m.entries)
        )
    ]
    return AdjunctionReport(equal=not failures, failures=failures)
