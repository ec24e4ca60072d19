"""Finite-dimensional Lie algebras from structure constants, with eager
axiom validation, plus representations given by explicit matrices.  A
representation parses its literal entries once and keeps only its
integer table; fraction_rows turns integer rows over a denominator back
into rows of fractions.Fraction, for a witness.

Constructors certify antisymmetry, the Jacobi identity, and the bracket
relation of representations before any object escapes, so downstream
diagram checks never run on invalid data.

Jacobi and the bracket relation are decided in Z.  The structure
constants are cleared once by the lcm delta of their denominators, and
a representation's matrices once, when it is built, by the lcm d of
theirs, which it keeps with the integer actions for pbw to read; both
checks compare integer tables that are the rational identities times a
fixed positive scale.  After parsing, a Fraction is built only for a
raised JacobiViolation or BracketMismatch.
"""

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .kernels import matmul_int
from .sparse import parse_rational, quoted


def fraction_rows(rows, den: int) -> tuple:
    """The rows of ints over den as a tuple of rows of Fractions."""
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


class AntisymmetryViolation(ValueError):
    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(
            f"structure constants violate [x_{i},x_{j}] = -[x_{j},x_{i}]"
        )


class JacobiViolation(ValueError):
    def __init__(self, triple: tuple[int, int, int], defect):
        self.triple = triple
        self.defect = defect
        i, j, k = triple
        super().__init__(
            f"Jacobi identity fails on basis triple ({i},{j},{k}); "
            f"cyclic sum has coefficients {defect}"
        )


class BracketMismatch(ValueError):
    """expected and got are the two sides of the bracket relation as Fraction rows."""

    def __init__(self, i: int, j: int, expected: tuple, got: tuple):
        self.pair = (i, j)
        self.expected = expected
        self.got = got
        want, have = ("; ".join(" ".join(map(str, r)) for r in m) for m in (expected, got))
        super().__init__(
            f"representation violates the bracket on pair ({i},{j}): "
            f"rho([x_{i},x_{j}]) = [{want}] but [rho(x_{i}),rho(x_{j})] = [{have}]"
        )


class LieAlgebra:
    """A Lie algebra over Q presented by structure constants.

    constants[i][j][k] is the coefficient of x_k in [x_i, x_j].  delta is
    the lcm of every denominator among the constants, and
    cleared_brackets[i][j] lists the (k, delta * constants[i][j][k]) that
    are nonzero, as Python ints: the bracket [x_i, -] on x_j cleared of
    denominators, which is what the Jacobi check, the bracket check of
    Representation and the derivations of pbw read.
    """

    __slots__ = ("dim", "labels", "constants", "delta", "cleared_brackets", "name")

    def __init__(self, constants, labels: Sequence[str] | None = None, name: str = ""):
        c = tuple(
            tuple(tuple(parse_rational(x) for x in row) for row in plane)
            for plane in constants
        )
        n = len(c)
        for plane in c:
            if len(plane) != n or any(len(row) != n for row in plane):
                raise ValueError("structure constants must be indexed over dim^3")
        self.dim = n
        self.constants = c
        self.labels = tuple(labels) if labels else tuple(f"x{i+1}" for i in range(n))
        self.name = name
        if len(self.labels) != n:
            raise ValueError("label count does not match dimension")
        self._check_antisymmetry()
        delta = self.delta = lcm(*(x.denominator for plane in c for row in plane for x in row))
        self.cleared_brackets = tuple(
            tuple(
                tuple((k, x.numerator * (delta // x.denominator)) for k, x in enumerate(row) if x)
                for row in plane
            )
            for plane in c
        )
        self._check_jacobi()

    def _check_antisymmetry(self):
        c = self.constants
        for i in range(self.dim):
            for j in range(i, self.dim):
                for k in range(self.dim):
                    if c[i][j][k] != -c[j][i][k]:
                        raise AntisymmetryViolation(i, j)

    def _check_jacobi(self):
        """Sum_m C_ijm C_mkl + C_jkm C_mil + C_kim C_mjl == 0 in Z, C = delta * c.

        The cyclic sum of [[x_i, x_j], x_k] read from cleared_brackets is
        delta^2 times the rational one; a defect is reported over delta^2.
        """
        cb = self.cleared_brackets
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = [0] * n
                    for a, b, z in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, x in cb[a][b]:
                            for l, y in cb[m][z]:
                                acc[l] += x * y
                    if any(acc):
                        den = self.delta**2
                        raise JacobiViolation((i, j, k), [str(Fraction(x, den)) for x in acc])

    def __repr__(self):
        return f"LieAlgebra({self.name or 'dim ' + str(self.dim)})"


class Representation:
    """A Lie algebra acting on Q^dimV by one matrix per basis element,
    each given as rows of rationals, as the catalog's integer tables are.

    Only the integer table is kept: d is the lcm of every denominator in
    the matrices and actions[g] is R_g = d rho(x_g) as int rows, which
    every check of pbw reads.
    """

    __slots__ = ("algebra", "dimV", "name", "d", "actions", "_sym_images")

    def __init__(self, algebra: LieAlgebra, matrices: Sequence, name: str = ""):
        mats = [[[parse_rational(x) for x in row] for row in m] for m in matrices]
        if any(len(row) != len(m[0]) for m in mats for row in m):
            raise ValueError("ragged rows in matrix literal")
        if len(mats) != algebra.dim:
            raise ValueError("need one action matrix per basis element")
        dv = len(mats[0]) if mats else 0
        if any(len(m) != dv or any(len(row) != dv for row in m) for m in mats):
            raise ValueError("action matrices must be square of a common size")
        self.algebra = algebra
        self.dimV = dv
        self.name = name
        d = self.d = lcm(*(x.denominator for m in mats for row in m for x in row))
        self.actions = tuple(
            tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in m)
            for m in mats
        )
        self._sym_images = None  # filled by pbw.sym_images
        self._check_brackets()

    def _check_brackets(self):
        """delta (R_i R_j - R_j R_i) == d sum_k C_ijk R_k in Z, for i < j.

        R_i = d rho(x_i) are the integer actions and C = delta c is the
        algebra's cleared_brackets, so both sides are d^2 delta times the
        two sides of [rho(x_i), rho(x_j)] = sum_k c_ijk rho(x_k).  The
        Fraction rows of a BracketMismatch are built only when it is raised.
        """
        dv = self.dimV
        if not dv:
            return
        d, acts = self.d, self.actions
        alg = self.algebra
        delta = alg.delta
        n = alg.dim
        for i in range(n):
            for j in range(i + 1, n):
                ab = matmul_int(acts[i], acts[j])
                ba = matmul_int(acts[j], acts[i])
                got = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]
                want = [[0] * dv for _ in range(dv)]
                for k, c in alg.cleared_brackets[i][j]:
                    for row, rk in zip(want, acts[k]):
                        for col, x in enumerate(rk):
                            if x:
                                row[col] += c * x
                if any(
                    delta * x != d * y
                    for rg, rw in zip(got, want)
                    for x, y in zip(rg, rw)
                ):
                    raise BracketMismatch(
                        i, j, fraction_rows(want, delta * d), fraction_rows(got, d * d)
                    )

    def __repr__(self):
        tag = self.name or f"dimV={self.dimV}"
        return f"Representation({self.algebra!r}, {tag})"


def adjoint_rep(alg: LieAlgebra) -> Representation:
    """ad(x_i) on the algebra itself: entry (k, j) is the x_k-coefficient
    of [x_i, x_j].  Validation of the result is equivalent to Jacobi."""
    n = alg.dim
    mats = [[[alg.constants[i][j][k] for j in range(n)] for k in range(n)] for i in range(n)]
    return Representation(alg, mats, name="adjoint")


MAX_JSON_DIM = 16  # algebra_from_json allocates dim^3 constants; Jacobi is O(dim^5)


def algebra_from_json(obj, name: str = "") -> LieAlgebra:
    """Build an algebra from the JSON schema

        {"dim": n, "labels": [...],
         "brackets": [{"i": i, "j": j, "coeffs": ["p/q", ...]}]}

    dim is an integer from 1 to MAX_JSON_DIM; labels, if given, are n
    distinct nonempty strings without "*", so that no two monomials'
    names (labels joined by "*", "1" for none) coincide; brackets is a
    list of objects with integer indices and a list of coefficients.
    Indices are 0-based.
    Each unordered pair may appear once; the opposite order is filled in by
    antisymmetry.  Omitted brackets are zero.  Any violation, including a
    zero denominator, raises ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError("algebra definition must be a JSON object")
    n = obj.get("dim")
    if type(n) is not int or not 1 <= n <= MAX_JSON_DIM:
        raise ValueError(f"algebra definition needs an integer 'dim' from 1 to {MAX_JSON_DIM}")
    labels = obj.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(x, str) and x and "*" not in x for x in labels)
        and len(set(labels)) == n == len(labels)
    ):
        raise ValueError(f"'labels' must be a list of {n} distinct nonempty strings without '*'")
    brackets = obj.get("brackets", [])
    if not isinstance(brackets, list) or not all(isinstance(e, dict) for e in brackets):
        raise ValueError("'brackets' must be a list of objects")
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    seen = set()
    for ent in brackets:
        try:
            i, j, coeffs = ent["i"], ent["j"], ent["coeffs"]
            if type(i) is not int or type(j) is not int or not isinstance(coeffs, list):
                raise TypeError("'i' and 'j' must be integers and 'coeffs' a list")
            coeffs = [parse_rational(x) for x in coeffs]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed bracket entry {quoted(ent)}: {exc}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bracket indices ({quoted(i)},{quoted(j)}) out of range for dim {n}")
        if len(coeffs) != n:
            raise ValueError(f"bracket ({i},{j}) needs {n} coefficients")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"duplicate bracket entry for pair {key}")
        seen.add(key)
        c[i][j] = coeffs
        c[j][i] = [-x for x in coeffs]
    return LieAlgebra(c, labels=labels, name=name)
