"""Exact-arithmetic kernels: lowest terms and canonical row reduction."""

import random
from fractions import Fraction
from math import gcd, lcm

from duflo.kernels import matmul_pairs, rref_int
from duflo.linalg import Matrix, kernel, kernel_of_images


def test_matmul_identity():
    inum = [1, 0, 0, 1]
    iden = [1, 1, 1, 1]
    mnum = [3, -2, 5, 7]
    mden = [2, 1, 3, 4]
    cnum, cden = matmul_pairs(inum, iden, mnum, mden, 2, 2, 2)
    assert cnum == mnum and cden == mden


def test_matmul_lowest_terms():
    # (1/2) * (2/3) = 1/3, normalized
    cnum, cden = matmul_pairs([1], [2], [2], [3], 1, 1, 1)
    assert cnum == [1] and cden == [3]


def test_rref_canonical():
    piv, rows = rref_int([{0: 2, 1: 2}, {2: 3}], 3)
    assert piv == [0, 2]
    assert rows == [{0: 1, 1: 1}, {2: 1}]


def test_rref_zero_and_identity():
    assert rref_int([{}, {}], 2) == ([], [])
    piv, rows = rref_int([{0: 5}, {1: -7}], 2)
    assert piv == [0, 1]
    assert rows == [{0: 1}, {1: 1}]


def test_rref_without_rows_or_columns():
    assert rref_int([], 3) == ([], [])
    assert rref_int([], 0) == ([], [])
    assert rref_int([{}], 0) == ([], [])


# -- dense oracle ---------------------------------------------------------------

def _reduce_row(row):
    g = 0
    for x in row:
        g = gcd(g, x)
    if g > 1:
        row[:] = [x // g for x in row]


def dense_rref_int(rows, nrows, ncols):
    """Column-by-column Gauss-Jordan on dense integer rows.

    The first row with a nonzero entry in the column becomes the pivot row
    and is cleared from every other row; rows are kept primitive and pivots
    positive.  rref_int ran this way on dense rows before it ran on sparse
    ones; the canonical output must not have changed.
    """
    work = [list(r) for r in rows[:nrows]]
    piv_cols = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        _reduce_row(work[r])
        p, wr = work[r][c], work[r]
        for i in range(nrows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x * p - y * f for x, y in zip(work[i], wr)]
                _reduce_row(work[i])
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return piv_cols, work[:r]


def _random_int_matrix(rnd, nrows, ncols):
    """A matrix whose rows are sparse, zero, duplicate or dependent."""
    rows = []
    for _ in range(nrows):
        kind = rnd.randrange(6)
        if kind == 0 or not rows and kind >= 3:
            row = [0] * ncols
        elif kind in (1, 2):
            row = [rnd.choice((0, 0, 0, 1, -1, 2, -3, 7, -12, 30)) for _ in range(ncols)]
        elif kind == 3:
            row = list(rnd.choice(rows))
        elif kind == 4:
            row = [-rnd.randrange(1, 5) * x for x in rnd.choice(rows)]
        else:
            a, b = rnd.choice(rows), rnd.choice(rows)
            s, t = rnd.randrange(-3, 4), rnd.randrange(-3, 4)
            row = [s * x + t * y for x, y in zip(a, b)]
        rows.append(row)
    return rows


def _sparse(row):
    return {j: x for j, x in enumerate(row) if x}


def _dense(row, ncols):
    return [row.get(j, 0) for j in range(ncols)]


def test_sparse_rref_matches_dense_oracle():
    rnd = random.Random(20260418)
    shapes = [(1, n) for n in range(1, 7)] + [(n, 1) for n in range(1, 7)]
    shapes += [(rnd.randrange(1, 9), rnd.randrange(1, 9)) for _ in range(150)]
    shapes += [(rnd.randrange(8, 20), rnd.randrange(1, 6)) for _ in range(40)]  # tall
    negative_lead = 0
    for nrows, ncols in shapes:
        rows = _random_int_matrix(rnd, nrows, ncols)
        negative_lead += any(next((x for x in r if x), 0) < 0 for r in rows)
        want_piv, want_rows = dense_rref_int(rows, nrows, ncols)
        piv, red = rref_int([_sparse(r) for r in rows], ncols)
        assert piv == want_piv, rows
        assert [_dense(r, ncols) for r in red] == want_rows, rows
        assert red == [_sparse(r) for r in want_rows]
    assert negative_lead > 50


def test_sparse_rref_output_is_canonical():
    rnd = random.Random(7)
    for _ in range(60):
        nrows, ncols = rnd.randrange(1, 8), rnd.randrange(1, 8)
        rows = [_sparse(r) for r in _random_int_matrix(rnd, nrows, ncols)]
        piv, red = rref_int(rows, ncols)
        assert piv == sorted(piv) and len(red) == len(piv)
        for r, c in enumerate(piv):
            assert min(red[r]) == c and red[r][c] > 0 and gcd(*red[r].values()) == 1
            assert all(x for x in red[r].values())
            assert all(c not in red[t] for t in range(len(piv)) if t != r)
        # the row space is kept: a row order change reduces to the same form
        assert rref_int(rows[::-1], ncols) == (piv, red)


def test_dense_kernel_clears_fraction_rows():
    # the dense kernel of a Fraction matrix is kernel_of_images of its rows
    # scaled to integers by any positive or negative factor
    # rows [1/2, 1/3, 0] and [0, -2/5, 4/5] clear to [3, 2, 0] and [0, -2, 4]
    m = Matrix([[Fraction(1, 2), Fraction(1, 3), 0], [0, Fraction(-2, 5), Fraction(4, 5)]])
    assert kernel(m) == [[Fraction(-4, 3), 2, 1]]
    assert kernel_of_images([{0: 3}, {0: 2, 1: -2}, {1: 4}]) == [({0: -4, 1: 6, 2: 3}, 3)]
    rnd = random.Random(11)
    dens = (1, 2, 3, 5, 7, 12)
    for _ in range(80):
        ncols = rnd.randrange(1, 7)
        coords = rnd.sample(range(8), rnd.randrange(1, 6))
        rows = {
            k: {j: Fraction(rnd.randrange(-9, 10), rnd.choice(dens)) for j in range(ncols)}
            for k in coords
        }
        scaled = {}
        for k, row in rows.items():
            factor = rnd.choice((1, -1, 2)) * lcm(*(c.denominator for c in row.values()))
            scaled[k] = {j: int(c * factor) for j, c in row.items()}
        ints = [{k: scaled[k][j] for k in coords if scaled[k][j]} for j in range(ncols)]
        assert all(type(c) is int for img in ints for c in img.values())
        dense = kernel(Matrix([[rows[k][j] for j in range(ncols)] for k in coords]))
        assert dense == [
            [Fraction(num.get(j, 0), den) for j in range(ncols)]
            for num, den in kernel_of_images(ints)
        ]
