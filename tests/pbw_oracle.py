"""The reference routes the tests compare the commands' integer tables against.

Elements of the tensor algebra are finite rational combinations of words
in basis indices.  symmetrize carries the 1/n! permutation sum, over all
n! permutations, and two maps send a word to an operator on a
representation V.  Matrices are plain tuples of Fraction rows, and
rational_actions reads rho(x_g) = R_g / d off the representation's
integer table, the only copy it keeps; test_lie checks that table
against the literal matrices it was cleared from:

  * theta composes action matrices with mat_mul, the triple-loop product
    of Fractions, so the word (i1, ..., ik) becomes the product
    rho(x_{i1}) ... rho(x_{ik}) (rightmost letter acts first);
  * phi contracts the iterated coaction V -> V (x) g*^(x)k, LambdaMap,
    against the word, with the innermost (first applied) coaction factor
    paired with the last letter.

Both conventions together make phi and theta agree on every word, which
is exactly the adjunction bookkeeping the diagram check exercises.  phi
is written with raw index loops over the Fraction coaction and theta
with its own product, so neither shares arithmetic with the other, nor
with the integer tables of duflo.pbw.SymImages, which nothing here calls.

contract_exp_atiyah is the class route to the Mukai obstruction, which
duflo.hodge.LineBundle.obstruction computes as integer images of basis
terms.
"""

import itertools
from fractions import Fraction
from math import factorial

from duflo.hodge import FormClass, LineBundle, PolyClass, contract_T_on_Omega
from duflo.lie import Representation
from duflo.pbw import SymElement
from duflo.sparse import LinComb


class TensorElement(LinComb):
    """Finite map from words to rational coefficients, zeros dropped."""

    __slots__ = ()

    def _key(self, w):
        return tuple(int(i) for i in w)


def symmetrize(s: SymElement) -> TensorElement:
    """The 1/n! full permutation sum, monomial by monomial.

    Repeated letters are summed with multiplicity, exactly as the n!
    permutation terms dictate.
    """
    top = max(map(len, s.num), default=0)
    out: dict = {}
    for m, x in s.num.items():
        share = x * (factorial(top) // factorial(len(m)))
        for perm in itertools.permutations(m):
            out[perm] = out.get(perm, 0) + share
    return TensorElement()._like(out, s.den * factorial(top))


def rational_actions(rep: Representation) -> tuple:
    """rho(x_g) = R_g / d for each basis index g, as Fraction rows."""
    return tuple(
        tuple(tuple(Fraction(x, rep.d) for x in row) for row in r) for r in rep.actions
    )


def mat_mul(a: tuple, b: tuple) -> tuple:
    """The product ab by the triple loop over Fractions, zeros of a skipped."""
    out = [[Fraction(0)] * (len(b[0]) if b else 0) for _ in a]
    for got, row in zip(out, a):
        for x, other in zip(row, b):
            if x:
                for j, y in enumerate(other):
                    got[j] += x * y
    return tuple(map(tuple, out))


class LambdaMap:
    """The representation reshaped as a coaction V -> V (x) g*.

    data[out][in][g] is the matrix entry of rho(x_g); contracting the
    g*-slot with x_i reproduces rho(x_i) by construction.
    """

    __slots__ = ("data",)

    def __init__(self, rep: Representation):
        dv, mats = rep.dimV, rational_actions(rep)
        self.data = tuple(
            tuple(tuple(m[o][i] for m in mats) for i in range(dv)) for o in range(dv)
        )


def theta(rep: Representation, t: TensorElement) -> tuple:
    """Word-to-operator map: each word's action matrices composed by mat_mul."""
    dv, mats = rep.dimV, rational_actions(rep)
    ident = tuple(tuple(Fraction(int(o == i)) for i in range(dv)) for o in range(dv))
    acc = [[Fraction(0)] * dv for _ in range(dv)]
    for w, x in t.num.items():
        m = ident
        for letter in w:
            m = mat_mul(m, mats[letter])
        for row, got in zip(acc, m):
            for i, v in enumerate(got):
                row[i] += x * v
    return tuple(tuple(v / t.den for v in row) for row in acc)


def phi(rep: Representation, t: TensorElement) -> tuple:
    """Word-to-operator map through iterated coaction contraction.

    Each word's entry table starts from the identity and contracts the
    coaction once per letter, last letter first, with plain index sums (no
    matrix product), so the innermost coaction factor meets the last letter.
    """
    dv = rep.dimV
    lam = LambdaMap(rep).data
    acc = [[Fraction(0)] * dv for _ in range(dv)]
    for w, x in t.num.items():
        table = [[Fraction(int(o == i)) for i in range(dv)] for o in range(dv)]
        for g in reversed(w):
            nxt = []
            for o in range(dv):
                row = []
                for i in range(dv):
                    s = Fraction(0)
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
    return tuple(tuple(v / t.den for v in row) for row in acc)


def contract_exp_atiyah(alpha: PolyClass, line: LineBundle) -> FormClass:
    """Total contraction against the exponential obstruction class.

    The (p,k) part of alpha pairs all k dual factors against the k-th
    wedge power of the (1,1) class c1 over k!; A-factors wedge.  The
    result is the form of bidegree (p+k, 0) that is the b-free part of
    contract_T_on_Omega(alpha, exp_form(c1)).
    """
    full = contract_T_on_Omega(alpha, line.exp)
    return full._like({k: x for k, x in full.num.items() if not k[1]}, full.den)
