"""Exact-arithmetic kernels: rational and integer matrix products, integer RREF.

Numerators and denominators are arbitrary-precision Python ints;
denominators are always positive and results are in lowest terms.
"""

from math import gcd
from operator import mul


def matmul_pairs(anum, aden, bnum, bden, n, k, m):
    """Multiply an n-by-k by a k-by-m rational matrix.

    Entries are given as flat row-major lists of numerators/denominators.
    Each output entry is accumulated over a running common denominator and
    normalized once, which keeps gcd work out of the inner loop.
    """
    cnum = [0] * (n * m)
    cden = [1] * (n * m)
    for i in range(n):
        arow = i * k
        for j in range(m):
            num = 0
            den = 1
            for t in range(k):
                p = anum[arow + t] * bnum[t * m + j]
                if p == 0:
                    continue
                q = aden[arow + t] * bden[t * m + j]
                num = num * q + p * den
                den = den * q
            if num:
                g = gcd(num, den)
                cnum[i * m + j] = num // g
                cden[i * m + j] = den // g
    return cnum, cden


def matmul_int(a, b):
    """Product of two integer matrices given as tuples of rows, as a tuple of rows.

    The column count is read from the rows of b, so b needs at least one.
    """
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _reduce_row(row, ncols):
    g = 0
    for j in range(ncols):
        if row[j]:
            g = gcd(g, row[j])
            if g == 1:
                return
    if g > 1:
        for j in range(ncols):
            row[j] //= g


def rref_int(rows, nrows, ncols):
    """Fraction-free reduced row echelon form of an integer matrix.

    Pivot choice is deterministic: columns are scanned left to right and
    the first row with a nonzero entry becomes the pivot row.  Every row is
    kept primitive (gcd 1) with a positive pivot, so the output is a
    canonical representative of the row space.  Returns (pivot_columns,
    pivot_rows).
    """
    work = [list(r) for r in rows]
    piv_cols = []
    r = 0
    for c in range(ncols):
        sel = -1
        for i in range(r, nrows):
            if work[i][c] != 0:
                sel = i
                break
        if sel < 0:
            continue
        if sel != r:
            work[r], work[sel] = work[sel], work[r]
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        _reduce_row(work[r], ncols)
        p = work[r][c]
        for i in range(nrows):
            if i == r or work[i][c] == 0:
                continue
            f = work[i][c]
            wi = work[i]
            wr = work[r]
            for j in range(ncols):
                wi[j] = wi[j] * p - wr[j] * f
            _reduce_row(wi, ncols)
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return piv_cols, work[:r]
