"""Symmetrization diagram over a Lie algebra, evaluated in End(V).

Symmetric elements are finite rational combinations of sorted monomials
in basis indices.  Symmetrization sends a monomial of degree n to the 1/n!
sum of its permuted words, and two maps send a word to an operator on a
representation V: theta composes the actions, rightmost letter first,
and phi contracts the iterated coaction V -> V (x) g*^(x)k against the
word, the innermost (first applied) coaction factor paired with the last
letter.  With these conventions phi and theta agree on every word, so the
square commutes; the enveloping algebra is never materialized, and
everything is compared inside End(V).  tests/pbw_oracle.py evaluates both
routes word by word over all n! permutations, as the tests' reference.

The checks evaluate the same sum through SymImages: the n! permutations
of a monomial m hit each distinct word of m exactly prod(m_i!) times, and
the sum W(m) of the distinct words obeys W(m) = sum over letters i of m
of x_i W(m - e_i), so each route memoizes the image of W on sorted
monomials, one entry per monomial.

The tables are integer matrices.  Both routes start from the integer
actions R_i = d*rho(x_i) that Representation clears once, with d the lcm
of the matrices' denominators: theta fills an entry with one product, the
R_i of m's distinct letters side by side times the entries of the m - e_i
stacked, and phi contracts the integer coaction, the reshape of the R_i,
so each table entry is d^|m| times the image of W(m).  check_pbw_diagram
compares a monomial's two entries, and check_invariant_image weighs an
invariant's entries and tests centrality, both in Z; each returns None
or its line's witness, and a diagram witness's Fraction rows come from
the tables.

The derivations ad(x_i) of the symmetric algebra run in Z as well: they
read LieAlgebra.cleared_brackets, the brackets times one lcm delta of the
structure-constant denominators.  invariants_s intersects the kernels
of the delta * ad(x_i), those of the ad(x_i), one at a time in Z, and
derivation_apply applies the table to its argument's numerators, so the
result is those integers over the argument's denominator times delta.

adjunction_check compares the integer coaction that phi contracts entry by
entry with the integer actions that theta multiplies; no matrix is formed.
The phi table is deliberately written with raw index loops over the
coaction, and the theta table with its own integer product, so the two
diagram routes share no arithmetic code.
"""

import itertools
from bisect import bisect
from collections import Counter
from math import factorial, gcd, prod
from operator import mul

from .kernels import kernel_basis, kernel_of_images, matmul_int
from .lie import LieAlgebra, Representation, fraction_rows
from .sparse import LinComb

SymMonomial = tuple[int, ...]  # sorted ascending


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
        return " + ".join(f"{c}*{monomial_name(alg, m)}" for m, c in sorted(self.terms.items()))


def monomial_name(alg: LieAlgebra, m: SymMonomial) -> str:
    """The labels of m joined by "*", or "1" for the empty monomial."""
    return "*".join(alg.labels[i] for i in m) or "1"


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

    Both read the representation's d and integer actions R_i = d*rho(x_i).
    theta_table[m] is d^|m| theta(W(m)), where W(m) is the sum of the
    distinct words of the sorted monomial m, and phi_table[m] is
    d^|m| phi(W(m)); both are tuples of int rows.  Each is filled by
    W(m) = sum_i x_i W(m - e_i) on its own route: theta in one
    kernels.matmul_int of the R_i of m's distinct letters side by side
    and the entries of the m - e_i stacked in the same order, phi by
    contracting lam[o][i][g] = R_g[o][i] with index loops.  A degree-D
    sweep over n letters stores at most C(n+D, D) entries per table, and
    sym_images keeps one on each representation for all its checks.

    theta(s) and phi(s) turn the tables back into the Fraction rows of
    the symmetrization of s under each route, which the word-by-word
    oracle of tests/pbw_oracle.py writes theta(rep, symmetrize(s)) and
    phi(rep, symmetrize(s)); only a failing diagram check calls them, for
    its witness.
    """

    __slots__ = ("rep", "lam", "theta_table", "phi_table")

    def __init__(self, rep: Representation):
        dv, acts = rep.dimV, rep.actions
        self.rep = rep
        self.lam = tuple(
            tuple(tuple(r[o][i] for r in acts) for i in range(dv)) for o in range(dv)
        )
        ident = tuple(tuple(int(o == i) for i in range(dv)) for o in range(dv))
        self.theta_table: dict[SymMonomial, tuple] = {(): ident}
        self.phi_table: dict[SymMonomial, tuple] = {(): ident}

    def theta_words(self, m: SymMonomial) -> tuple:
        got = self.theta_table.get(m)
        if got is None:
            splits = tuple(_splits(m))
            acts = [self.rep.actions[letter] for letter, _ in splits]
            got = self.theta_table[m] = matmul_int(
                [sum(rows, ()) for rows in zip(*acts)],
                [row for _, rest in splits for row in self.theta_words(rest)],
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

        Then theta of the symmetrization of s is sum_m k_m theta_table[m] /
        scale, and the same holds for phi.  With c_m = x_m / den and t the top
        degree, scale = den t! d^t and k_m = x_m prod(m_i!) t!/|m|! d^(t-|m|).
        """
        top, d = max(map(len, s.num), default=0), self.rep.d
        weights = [
            (m, x * _repeats(m) * (factorial(top) // factorial(len(m))) * d ** (top - len(m)))
            for m, x in s.num.items()
        ]
        return weights, s.den * factorial(top) * d**top

    def theta_sum(self, weights: list) -> tuple:
        """sum_m k_m theta_table[m] over the (m, k_m) of weights."""
        dv = self.rep.dimV
        ks = [k for _, k in weights]
        flat = [sum(self.theta_words(m), ()) for m, _ in weights]
        cells = [sum(map(mul, ks, cell)) for cell in zip(*flat)] or [0] * dv * dv
        return tuple(zip(*[iter(cells)] * dv))

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

    def theta(self, s: SymElement) -> tuple:
        """theta of the symmetrization of s, from the theta table."""
        weights, scale = self.weights(s)
        return fraction_rows(self.theta_sum(weights), scale)

    def phi(self, s: SymElement) -> tuple:
        """phi of the symmetrization of s, from the phi table."""
        weights, scale = self.weights(s)
        return fraction_rows(self.phi_sum(weights), scale)


def _derive(brackets: tuple, terms: dict) -> dict:
    """delta * ad(x_i) on an integer combination of monomials, in Z.

    brackets is LieAlgebra.cleared_brackets[i] and terms maps sorted
    monomials to ints; returns {monomial: int}, zeros dropped.  ad(x_i) is
    a derivation, so each distinct letter of m is replaced once by its
    cleared bracket, weighted by the letter's multiplicity in m.
    """
    out: dict[SymMonomial, int] = {}
    for m, a in terms.items():
        prev = -1
        for pos, letter in enumerate(m):
            if letter == prev:
                continue
            prev, row = letter, brackets[letter]
            if not row:
                continue
            rest, scale = m[:pos] + m[pos + 1:], a * m.count(letter)
            for k, c in row:
                at = bisect(rest, k)
                mono = rest[:at] + (k,) + rest[at:]
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


def _combine(vecs: list[dict], coeffs: dict) -> dict:
    """sum_j coeffs[j] vecs[j], nonzero, with its content divided out."""
    out: dict[SymMonomial, int] = {}
    for j, a in coeffs.items():
        for m, x in vecs[j].items():
            out[m] = out.get(m, 0) + a * x
    g = gcd(*out.values())
    return {m: x // g for m, x in out.items() if x}


def invariants_s(alg: LieAlgebra, degree: int) -> list[SymElement]:
    """Basis of the invariant subspace of degree-d symmetric elements.

    The exact intersection of the kernels of the derivations, taken one
    derivation at a time.  The vectors start as the monomials; each
    integer table alg.cleared_brackets[i], delta * ad(x_i), which has the
    same kernel as ad(x_i), is applied to them, and kernel_of_images of
    the images replaces them by their primitive integer combinations in
    that kernel.  A derivation that kills them all is skipped, and the
    loop stops once none is left.  kernel_basis returns the final span in
    the form one kernel_of_images of every derivation's images at once
    gives, so each vector, integers over one denominator, becomes a
    SymElement without a Fraction.  check_invariant_annihilation applies
    every derivation to each returned element, for the
    lie-invariant-annihilation lines.
    """
    if degree == 0:
        return [SymElement({(): 1})]
    basis = sym_basis(alg.dim, degree)
    vecs = [{m: 1} for m in basis]
    for brackets in alg.cleared_brackets:
        if not vecs:
            break
        images = [_derive(brackets, v) for v in vecs]
        if any(images):
            vecs = [_combine(vecs, num) for num, _ in kernel_of_images(images)]
    col = {m: c for c, m in enumerate(basis)}
    found = kernel_basis([{col[m]: x for m, x in v.items()} for v in vecs], len(basis))
    zero = SymElement()
    return [zero._like({basis[c]: x for c, x in num.items()}, den) for num, den in found]


def check_invariant_annihilation(alg: LieAlgebra, s: SymElement) -> dict | None:
    """Every derivation ad(x_i) kills s.  Returns None, or the witness: s."""
    if all(derivation_apply(alg, i, s).is_zero() for i in range(alg.dim)):
        return None
    return {"element": s.describe(alg)}


def sym_images(rep: Representation) -> SymImages:
    """The SymImages kept on rep, built on its first use."""
    if rep._sym_images is None:
        rep._sym_images = SymImages(rep)
    return rep._sym_images


def check_pbw_diagram(rep: Representation, m: SymMonomial) -> dict | None:
    """Compare the two routes from the sorted monomial m to End(V).

    Route one symmetrizes and composes matrices (theta); route two
    symmetrizes and contracts iterated coactions (phi).  Exact equality is
    the commutativity of the square.  The 1/n! sum of m is
    (prod(m_i!)/n!) W(m), W(m) the sum of the distinct words of m, and
    sym_images(rep) holds d^|m| times each route's image of W(m), so
    theta_table[m] and phi_table[m] carry the same nonzero scale and are
    compared in Z.  The routes share only the splitting of m into
    (i, m - e_i) and d, both checked against symmetrize in the tests:
    theta's table is built from integer matrix products and phi's from
    coaction index loops, so a fault in either route's arithmetic shows.
    Returns None, or the witness: m's name and both routes' JSON images.
    """
    images = sym_images(rep)
    if images.theta_words(m) == images.phi_words(m):
        return None
    s = SymElement.monomial(m)
    return {
        "monomial": monomial_name(rep.algebra, m),
        "path_theta": [[str(x) for x in row] for row in images.theta(s)],
        "path_contract": [[str(x) for x in row] for row in images.phi(s)],
    }


def check_invariant_image(rep: Representation, s: SymElement) -> dict | None:
    """Both routes' images of an invariant s agree and commute with the action.

    Each route combines its table entries with the integer weights of
    SymImages.weights, over one positive scale; centrality is decided on
    phi's integer image B as B R_i == R_i B for R_i = d rho(x_i).  Returns
    None, or the witness: s and the two outcomes.
    """
    images = sym_images(rep)
    weights, _ = images.weights(s)
    b = images.phi_sum(weights)
    equal = images.theta_sum(weights) == b
    central = all(matmul_int(b, r) == matmul_int(r, b) for r in rep.actions)
    if equal and central:
        return None
    return {"element": s.describe(rep.algebra), "diagram_equal": equal, "central": central}


def adjunction_check(rep: Representation) -> dict | None:
    """The basis indices g whose coaction, as phi reads it, is not R_g.

    phi contracts the integer coaction lam of sym_images(rep) and theta
    multiplies by the integer actions R_g = d rho(x_g); the adjunction
    says lam[o][i][g] == R_g[o][i] for every o and i.  Returns None when
    it holds, else the witness {"basis_indices": [g, ...]}.
    """
    lam = sym_images(rep).lam
    failures = [
        g
        for g, r in enumerate(rep.actions)
        if any(tuple(cell[g] for cell in plane) != row for plane, row in zip(lam, r))
    ]
    return {"basis_indices": failures} if failures else None
