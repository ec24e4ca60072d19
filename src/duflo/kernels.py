"""Exact-arithmetic kernels: the integer matrix product, the fraction-free
RREF of sparse {column: int} rows, the kernel of a map given by the
sparse integer images of a basis, and that kernel's form of the basis of
any span.

Numerators and denominators are arbitrary-precision Python ints;
denominators are always positive and results are in lowest terms.
"""

from math import gcd, lcm
from operator import mul


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


def kernel_of_images(images) -> list[tuple[dict[int, int], int]]:
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


def kernel_basis(vecs, ncols) -> list[tuple[dict[int, int], int]]:
    """The basis kernel_of_images gives of the span of vecs, in its form.

    vecs are {column: int} maps with no zero value and columns below
    ncols.  kernel_of_images' vectors are the unique basis of a subspace
    that is 1 at one free column f and 0 at the others, each with its top
    entry at f: the canonical RREF over reversed column order.  Each pivot
    row r with its pivot at original column f gives (r, r[f]), ascending
    in f.
    """
    top = ncols - 1
    piv_cols, rows = rref_int([{top - c: x for c, x in v.items()} for v in vecs], ncols)
    return [
        ({top - c: x for c, x in sorted(row.items(), reverse=True)}, row[p])
        for p, row in reversed(list(zip(piv_cols, rows)))
    ]
