"""The d! oracle's rational linear algebra: a matrix product and a dense kernel.

mat_mul, the product the oracle theta composes words with, runs through
kernels.matmul_pairs, which no command calls.  kernel is the dense view
of kernels.kernel_of_images for a lie.Matrix.
"""

from fractions import Fraction
from math import lcm

from .kernels import kernel_of_images, matmul_pairs
from .lie import Matrix

Q = Fraction


class ShapeMismatch(Exception):
    """Raised when two matrices have incompatible shapes."""

    def __init__(self, op: str, a_shape: tuple, b_shape: tuple):
        self.op = op
        self.a_shape = a_shape
        self.b_shape = b_shape
        super().__init__(f"{op}: incompatible shapes {a_shape} and {b_shape}")


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product through kernels.matmul_pairs."""
    if a.cols != b.rows:
        raise ShapeMismatch("mat_mul", a.shape, b.shape)
    return Matrix._of(matmul_pairs(a.entries, b.entries, b.cols), b.cols)


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
