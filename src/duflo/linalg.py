"""Exact rational dense linear algebra.

Scalars are fractions.Fraction (arbitrary precision, always in lowest
terms, positive denominator), matrices are immutable tuples of tuples.
Products and row reduction run through the integer kernels in
duflo.kernels.
"""

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .kernels import matmul_pairs, rref_int

Q = Fraction


class ShapeMismatch(Exception):
    """Raised when two matrices have incompatible shapes."""

    def __init__(self, op: str, a_shape: tuple, b_shape: tuple):
        self.op = op
        self.a_shape = a_shape
        self.b_shape = b_shape
        super().__init__(f"{op}: incompatible shapes {a_shape} and {b_shape}")


def parse_rational(value) -> Fraction:
    """Accept ints, Fractions and 'p/q' strings; bad strings raise ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
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
        """Matrix of cols-long rows from arithmetic; no parsing.

        Entries are Fractions, or ints in the integer matrices that
        kernel_of_images hands to kernel.
        """
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

    def apply(self, vec: Sequence) -> list[Fraction]:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ShapeMismatch("apply", self.shape, (len(vec), 1))
        vec = [parse_rational(x) for x in vec]
        return [sum((a * x for a, x in zip(row, vec)), Q(0)) for row in self.entries]

    def commutator(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other) - mat_mul(other, self)

    def to_int_rows(self) -> list:
        """Clear denominators row by row (preserves the row space and kernel).

        A row of ints, as kernel_of_images builds, is kept as it is.
        """
        out = []
        for row in self.entries:
            if all(type(x) is int for x in row):
                out.append(row)
                continue
            scale = lcm(*(x.denominator for x in row))
            out.append([x.numerator * (scale // x.denominator) for x in row])
        return out

    def rref(self) -> tuple[list[int], list[list[int]]]:
        """Canonical integer RREF (pivot columns, primitive pivot rows)."""
        return rref_int(self.to_int_rows(), self.rows, self.cols)

    def rank(self) -> int:
        return len(self.rref()[0])

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
    """Basis of the right nullspace {v : m v = 0}.

    Deterministic: computed from the canonical RREF, one basis vector per
    free column in ascending column order.  The zero matrix returns the
    standard basis, a full-rank square matrix returns [].
    """
    piv_cols, red = m.rref()
    piv_set = set(piv_cols)
    basis = []
    for f in range(m.cols):
        if f in piv_set:
            continue
        v = [Q(0)] * m.cols
        v[f] = Q(1)
        for r, p in enumerate(piv_cols):
            v[p] = Fraction(-red[r][f], red[r][p])
        basis.append(v)
    return basis


def kernel_of_images(images: Sequence[dict]) -> list[list[Fraction]]:
    """Kernel of the linear map sending basis vector j to images[j].

    Each image is a {coordinate: coefficient} map.  The matrix has one row
    per coordinate that occurs, in sorted order; kernel() depends only on
    the row space, so this is the canonical basis of the dense matrix over
    any larger set of coordinates.  Each row is cleared of denominators
    from the sparse images alone, which scales it and keeps the kernel, so
    kernel() receives an integer matrix.
    """
    ncols = len(images)
    by_coord: dict = {}
    for col, img in enumerate(images):
        for k, c in img.items():
            by_coord.setdefault(k, []).append((col, c))
    rows = []
    for k in sorted(by_coord):
        entries = by_coord[k]
        scale = lcm(*(c.denominator for _, c in entries))
        row = [0] * ncols
        for col, c in entries:
            row[col] = c.numerator * (scale // c.denominator)
        rows.append(row)
    return kernel(Matrix._of(rows, ncols))
