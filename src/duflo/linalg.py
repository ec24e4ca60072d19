"""Exact rational linear algebra: dense matrices and sparse kernels.

Scalars are fractions.Fraction (arbitrary precision, always in lowest
terms, positive denominator), matrices are immutable tuples of tuples.
Products run through the integer kernels in duflo.kernels.  Kernels are
taken of maps given by their sparse images of a basis, from the sparse
integer RREF of kernels.rref_int, and are returned as sparse integer
vectors over one denominator.
"""

import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .kernels import matmul_pairs, rref_int

Q = Fraction
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


class ShapeMismatch(Exception):
    """Raised when two matrices have incompatible shapes."""

    def __init__(self, op: str, a_shape: tuple, b_shape: tuple):
        self.op = op
        self.a_shape = a_shape
        self.b_shape = b_shape
        super().__init__(f"{op}: incompatible shapes {a_shape} and {b_shape}")


def parse_rational(value) -> Fraction:
    """Accept ints, Fractions and [+-]p[/q] ASCII digit strings; others raise ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise ValueError(f"not a p/q rational literal: {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact rational literal: {value!r}")


class Matrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        """Parse a literal; cols is read from the first row unless given,
        and must be given for a matrix with no rows but some columns."""
        rows = tuple(tuple(parse_rational(x) for x in row) for row in entries)
        self.entries = rows
        self.rows = len(rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        self.cols = cols
        for row in rows:
            if len(row) != cols:
                raise ValueError("ragged rows in matrix literal")

    @classmethod
    def _of(cls, rows, cols: int) -> "Matrix":
        """Matrix of cols-long rows of Fractions from arithmetic; no parsing."""
        out = object.__new__(cls)
        out.entries = tuple(map(tuple, rows))
        out.rows = len(out.entries)
        out.cols = cols
        return out

    @classmethod
    def over(cls, rows, den: int, cols: int) -> "Matrix":
        """The Fraction matrix rows / den, from rows of ints."""
        return cls._of([[Fraction(x, den) for x in row] for row in rows], cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)], cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ShapeMismatch("add", self.shape, other.shape)
        return Matrix._of(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ShapeMismatch("sub", self.shape, other.shape)
        return Matrix._of(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            self.cols,
        )

    def __neg__(self) -> "Matrix":
        return Matrix._of([[-a for a in row] for row in self.entries], self.cols)

    def scale(self, c) -> "Matrix":
        c = parse_rational(c)
        return Matrix._of([[c * a for a in row] for row in self.entries], self.cols)

    def __rmul__(self, c) -> "Matrix":
        return self.scale(c)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.entries]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product through kernels.matmul_pairs."""
    if a.cols != b.rows:
        raise ShapeMismatch("mat_mul", a.shape, b.shape)
    anum = [x.numerator for row in a.entries for x in row]
    aden = [x.denominator for row in a.entries for x in row]
    bnum = [x.numerator for row in b.entries for x in row]
    bden = [x.denominator for row in b.entries for x in row]
    cnum, cden = matmul_pairs(anum, aden, bnum, bden, a.rows, a.cols, b.cols)
    m = b.cols
    return Matrix._of(
        [
            [Fraction(cnum[i * m + j], cden[i * m + j]) for j in range(m)]
            for i in range(a.rows)
        ],
        m,
    )


def kernel(m: Matrix) -> list[list[Fraction]]:
    """Basis of the right nullspace {v : m v = 0}: kernel_of_images of m's
    columns, each row of m first cleared of denominators by its own lcm,
    which keeps the kernel, and each vector written out densely."""
    cols: list[dict] = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.entries):
        scale = lcm(*(x.denominator for x in row))
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x.numerator * (scale // x.denominator)
    return [
        [Fraction(num.get(j, 0), den) for j in range(m.cols)]
        for num, den in kernel_of_images(cols)
    ]


def kernel_of_images(images: Sequence[dict]) -> list[tuple[dict[int, int], int]]:
    """Kernel of the linear map sending basis vector j to images[j].

    Each image is a {coordinate: int} map with no zero values, as a
    LinComb's numerators are; each coordinate gives one sparse integer
    row.  From their canonical RREF comes one vector per free column f,
    ascending in f: -row[f]/row[p] at each pivot p whose row meets f, then
    1 at f.  Each vector is a pair (num, den): {column: int} numerators
    with ascending keys and no zero value over one denominator den > 0,
    the lcm of the pivots met, with their common factor divided out.  So
    equal vectors are equal pairs.
    """
    by_coord: dict = {}
    for col, img in enumerate(images):
        for k, c in img.items():
            by_coord.setdefault(k, {})[col] = c
    piv_cols, red = rref_int(by_coord.values(), len(images))
    pivots = set(piv_cols)
    hits: dict = {f: [] for f in range(len(images)) if f not in pivots}
    for p, row in zip(piv_cols, red):
        lead = row.pop(p)
        for f, x in row.items():
            hits[f].append((p, x, lead))
    vecs = []
    for f, entries in hits.items():
        den = lcm(*(lead for _, _, lead in entries))
        num = {p: -x * (den // lead) for p, x, lead in entries}
        num[f] = den
        g = gcd(*num.values())
        if g != 1:
            num = {p: x // g for p, x in num.items()}
        vecs.append((num, den // g))
    return vecs
