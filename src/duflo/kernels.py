"""Exact-arithmetic kernels: rational and integer matrix products, and the
fraction-free RREF of sparse {column: int} rows.

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


def _primitive(row: dict) -> dict:
    """row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _eliminate(row: dict, pivot: dict, c: int) -> dict:
    """A primitive row of the span of row and pivot with no entry in column c.

    row is scaled by pivot[c] / gcd(pivot[c], row[c]), a positive factor
    when pivot[c] > 0, so its entries where pivot is zero keep their signs.
    """
    p, f = pivot[c], row[c]
    g = gcd(p, f)
    p //= g
    f //= g
    out = {j: x * p for j, x in row.items()} if p != 1 else dict(row)
    for j, y in pivot.items():
        v = out.get(j, 0) - f * y
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out)


def rref_int(rows, ncols):
    """Fraction-free reduced row echelon form of sparse integer rows.

    rows are {column: int} maps with no zero entries and columns below
    ncols.  The result is the canonical representative of their span:
    pivot columns ascending, each pivot row primitive (gcd 1) with a
    positive pivot and zero in every other pivot column.  Returns
    (pivot_columns, pivot_rows), the rows as {column: int} maps.

    Elimination never leaves Z; the pivot rows found so far are kept in
    this reduced form throughout.  Each input row, sparsest first, is
    cleared at the pivot columns it meets (a pivot row is zero in every
    other pivot column, so this adds no new ones); a nonzero remainder
    leads in a new pivot column, which is then cleared from the earlier
    pivot rows.  Every step divides the row's content out, where Bareiss's
    integer-preserving elimination divides out a known common factor, so
    entries stay small.  The output depends only on the row space, not on
    the order of the steps.
    """
    pivots: dict[int, dict] = {}
    for row in sorted(rows, key=len):
        if len(pivots) == ncols:
            break
        for c in [j for j in row if j in pivots]:
            row = _eliminate(row, pivots[c], c)
        if not row:
            continue
        c = min(row)
        if row[c] < 0:
            row = {j: -x for j, x in row.items()}
        row = _primitive(row)
        for lead, other in pivots.items():
            if c in other:
                pivots[lead] = _eliminate(other, row, c)
        pivots[c] = row
    piv_cols = sorted(pivots)
    return piv_cols, [pivots[c] for c in piv_cols]
