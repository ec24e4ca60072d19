"""Exact-arithmetic kernels: lowest terms and canonical row reduction."""

import random
from fractions import Fraction
from math import gcd

from duflo.kernels import matmul_pairs, rref_int
from duflo.linalg import Matrix


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
    piv, rows = rref_int([[2, 2, 0], [0, 0, 3]], 2, 3)
    assert piv == [0, 2]
    assert rows == [[1, 1, 0], [0, 0, 1]]


def test_rref_zero_and_identity():
    piv, rows = rref_int([[0, 0], [0, 0]], 2, 2)
    assert piv == [] and rows == []
    piv, rows = rref_int([[5, 0], [0, -7]], 2, 2)
    assert piv == [0, 1]
    assert rows == [[1, 0], [0, 1]]


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


def test_sparse_rref_matches_dense_oracle():
    rnd = random.Random(20260418)
    shapes = [(1, n) for n in range(1, 7)] + [(n, 1) for n in range(1, 7)]
    shapes += [(rnd.randrange(1, 9), rnd.randrange(1, 9)) for _ in range(150)]
    shapes += [(rnd.randrange(8, 20), rnd.randrange(1, 6)) for _ in range(40)]  # tall
    negative_lead = 0
    for nrows, ncols in shapes:
        rows = _random_int_matrix(rnd, nrows, ncols)
        negative_lead += any(next((x for x in r if x), 0) < 0 for r in rows)
        want = dense_rref_int(rows, nrows, ncols)
        assert rref_int(rows, nrows, ncols) == want, rows
        # tuple rows, as Matrix entries hold them, give the same result
        assert rref_int(tuple(map(tuple, rows)), nrows, ncols) == want
    assert negative_lead > 50


def test_sparse_rref_output_is_canonical():
    rnd = random.Random(7)
    for _ in range(60):
        nrows, ncols = rnd.randrange(1, 8), rnd.randrange(1, 8)
        rows = _random_int_matrix(rnd, nrows, ncols)
        piv, red = rref_int(rows, nrows, ncols)
        assert piv == sorted(piv) and len(red) == len(piv)
        for r, c in enumerate(piv):
            assert red[r][c] > 0 and gcd(*red[r]) == 1
            assert all(x == 0 for x in red[r][:c])
            assert all(red[t][c] == 0 for t in range(len(piv)) if t != r)
        # the row space is kept: a row order change reduces to the same form
        assert rref_int(rows[::-1], nrows, ncols) == (piv, red)


def test_matrix_rref_clears_fraction_rows():
    m = Matrix([[Fraction(1, 2), Fraction(1, 3), 0], [0, Fraction(-2, 5), Fraction(4, 5)]])
    # rows cleared to [3, 2, 0] and [0, -2, 4] before reduction
    assert m.rref() == dense_rref_int([[3, 2, 0], [0, -2, 4]], 2, 3)
    assert m.rref() == ([0, 1], [[3, 0, 4], [0, 1, -2]])
    assert m.to_int_rows() == [[3, 2, 0], [0, -2, 4]]
    # integer rows, as kernel_of_images builds them, are reduced as they are
    ints = Matrix._of([[3, 2, 0], [0, -2, 4]], 3)
    assert ints.to_int_rows() == [(3, 2, 0), (0, -2, 4)]
    assert ints.rref() == m.rref()
