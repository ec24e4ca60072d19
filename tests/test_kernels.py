"""Exact-arithmetic kernels: the integer product, canonical row reduction
and kernels of integer images, against independent oracles."""

import random
from fractions import Fraction
from math import gcd, lcm

from duflo.kernels import kernel_basis, kernel_of_images, matmul_int, rref_int
from duflo.rng import SplitMix64

from pbw_oracle import mat_mul


def test_matmul_identity():
    ident = ((1, 0), (0, 1))
    m = ((3, -2), (5, 7))
    assert matmul_int(ident, m) == m == matmul_int(m, ident)


def _random_ints(rng, rows, cols):
    return tuple(tuple(rng.below(11) - 5 for _ in range(cols)) for _ in range(rows))


def test_hand_product():
    assert matmul_int(((0, 1), (0, 0)), ((0, 0), (1, 0))) == ((1, 0), (0, 0))


def test_random_products_match_naive_oracle():
    # the integer product of the theta table and the bracket check against
    # the oracle's triple loop over Fractions
    rng = SplitMix64(101)
    for rows, inner, cols in [(5, 5, 5), (3, 4, 2), (1, 6, 1), (4, 1, 3)]:
        for _ in range(5):
            a, b = _random_ints(rng, rows, inner), _random_ints(rng, inner, cols)
            got = matmul_int(a, b)
            assert all(type(x) is int for row in got for x in row)
            assert got == mat_mul(a, b)


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
    # the kernel of a Fraction matrix is kernel_of_images of its rows scaled
    # to integers by any positive or negative factor, each row its own
    # rows [1/2, 1/3, 0] and [0, -2/5, 4/5] clear to [3, 2, 0] and [0, -2, 4]
    # and have the kernel (-4/3, 2, 1)
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
        bases = []
        for factors in ((1,), (1, -1, 2)):
            scaled = {}
            for k, row in rows.items():
                factor = rnd.choice(factors) * lcm(*(c.denominator for c in row.values()))
                scaled[k] = {j: int(c * factor) for j, c in row.items()}
            ints = [{k: scaled[k][j] for k in coords if scaled[k][j]} for j in range(ncols)]
            assert all(type(c) is int for img in ints for c in img.values())
            bases.append(kernel_of_images(ints))
        assert bases[0] == bases[1]
        for num, den in bases[0]:
            for row in rows.values():
                assert sum(row[j] * Fraction(x, den) for j, x in num.items()) == 0


def test_kernel_basis_is_kernel_of_images_of_any_spanning_set():
    # rescaled, permuted and recombined, the kernel vectors of a seeded
    # integer map give back kernel_of_images' basis, term order included
    rnd = random.Random(30)
    seen = 0
    for _ in range(120):
        ncols = rnd.randrange(1, 9)
        coords = rnd.randrange(0, ncols + 1)
        images = [
            {k: c for k in range(coords) if (c := rnd.choice((0, 0, 1, -2, 3, 5)))}
            for _ in range(ncols)
        ]
        want = kernel_of_images(images)
        scales = [rnd.choice((1, -1, 2, -3, 6)) for _ in want]
        vecs = [{j: x * a for j, x in num.items()} for a, (num, _) in zip(scales, want)]
        for _ in range(3 * len(vecs)):
            if len(vecs) > 1:
                i, j = rnd.sample(range(len(vecs)), 2)
                a = rnd.randrange(-4, 5)
                row = {c: vecs[i].get(c, 0) + a * vecs[j].get(c, 0) for c in range(ncols)}
                vecs[i] = {c: x for c, x in row.items() if x}
        rnd.shuffle(vecs)
        got = kernel_basis(vecs, ncols)
        assert [(list(num.items()), den) for num, den in got] == [
            (list(num.items()), den) for num, den in want
        ]
        seen += len(want) > 1
    assert seen > 30


# -- kernel_of_images against the dense oracle ----------------------------------

def _int_rows(rows):
    """Each row scaled by the lcm of its denominators: the same row space."""
    out = []
    for row in rows:
        scale = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(Fraction(x) * scale) for x in row])
    return out


def _rank(rows, cols):
    return len(dense_rref_int(_int_rows(rows), len(rows), cols)[0])


def _dense_kernel(rows, cols):
    """{column: Fraction} kernel basis of a dense rational matrix, from dense_rref_int."""
    piv, red = dense_rref_int(_int_rows(rows), len(rows), cols)
    basis = []
    for f in range(cols):
        if f not in piv:
            v = {p: Fraction(-r[f], r[p]) for p, r in zip(piv, red) if r[f]}
            v[f] = Fraction(1)
            basis.append(dict(sorted(v.items())))
    return basis


def _as_fractions(basis):
    """(num, den) kernel vectors as {column: Fraction} dicts."""
    return [{j: Fraction(x, den) for j, x in num.items()} for num, den in basis]


def cleared_images(images):
    """Rational images with each coordinate row scaled to integers by its lcm:
    the same kernel, in the integer form kernel_of_images takes."""
    scale: dict = {}
    for img in images:
        for k, c in img.items():
            scale[k] = lcm(scale.get(k, 1), Fraction(c).denominator)
    return [{k: int(c * scale[k]) for k, c in img.items()} for img in images]


def _assert_canonical_shape(basis, cols):
    """Integer numerators with ascending keys below cols and no zero value over
    a positive denominator, sharing no factor with it; den at the free column,
    which is the largest key and ascends from vector to vector."""
    free = [max(num) for num, _ in basis]
    assert free == sorted(set(free))
    for (num, den), f in zip(basis, free):
        assert list(num) == sorted(num) and 0 <= min(num) and f < cols
        assert all(x != 0 and type(x) is int for x in num.values())
        assert type(den) is int and den > 0 and gcd(den, *num.values()) == 1
        assert num[f] == den


def test_kernel_identity():
    assert kernel_of_images([{j: 1} for j in range(4)]) == []


def test_kernel_known_line():
    # the matrix [[1, 1, 0], [0, 0, 1]] by columns: its kernel spans (1, -1, 0)
    images = [{0: 1}, {0: 1}, {1: 1}]
    assert kernel_of_images(images) == [({0: -1, 1: 1}, 1)]


def test_kernel_of_images_matches_dense_kernel():
    # the dense matrix has every coordinate as a row, in reverse order, and
    # extra zero rows: the canonical kernel depends only on the row space
    rng = SplitMix64(505)
    for trial in range(60):
        cols = rng.below(6) + 1
        coords = [(rng.below(3), rng.below(4)) for _ in range(rng.below(6) + 1)]
        value = rng.rational if trial % 2 else lambda: rng.below(11) - 5
        images = [{k: q for k in coords if rng.below(3) == 0 and (q := value())} for _ in range(cols)]
        rows = [[img.get(k, 0) for img in images] for k in sorted(set(coords), reverse=True)]
        rows += [[0] * cols] * (rng.below(3) + 1)
        basis = kernel_of_images(cleared_images(images))
        assert _as_fractions(basis) == _dense_kernel(rows, cols)
        _assert_canonical_shape(basis, cols)
        assert len(basis) + _rank(rows, cols) == cols
        for num, _ in basis:
            for k in coords:
                assert sum(images[j].get(k, 0) * x for j, x in num.items()) == 0


def test_kernel_of_images_without_coordinates_is_standard_basis():
    assert kernel_of_images([{}, {}, {}]) == [({j: 1}, 1) for j in range(3)]
    assert kernel_of_images([]) == []


def test_rational_roundtrip():
    rng = SplitMix64(404)
    for _ in range(50):
        q = rng.rational(span=9, max_den=9)
        if q:
            assert q * (1 / q) == 1
            assert Fraction(q.numerator, q.denominator) == q
