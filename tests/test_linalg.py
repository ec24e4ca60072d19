"""Exact matrix arithmetic against independent oracles."""

from fractions import Fraction as Q
from math import gcd, lcm

import pytest

from duflo.linalg import Matrix, ShapeMismatch, kernel, kernel_of_images, mat_mul
from duflo.rng import SplitMix64

from test_kernels import dense_rref_int


def _naive_mul(a: Matrix, b: Matrix) -> Matrix:
    # independent triple-loop oracle
    out = [[Q(0)] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            s = Q(0)
            for t in range(a.cols):
                s += a[i, t] * b[t, j]
            out[i][j] = s
    return Matrix(out)


def _int_rows(rows):
    """Each row scaled by the lcm of its denominators: the same row space."""
    out = []
    for row in rows:
        scale = lcm(*(Q(x).denominator for x in row))
        out.append([int(Q(x) * scale) for x in row])
    return out


def _rank(rows, cols):
    return len(dense_rref_int(_int_rows(rows), len(rows), cols)[0])


def _dense_kernel(rows, cols):
    """{column: Fraction} kernel basis of a dense rational matrix, from dense_rref_int."""
    piv, red = dense_rref_int(_int_rows(rows), len(rows), cols)
    basis = []
    for f in range(cols):
        if f not in piv:
            v = {p: Q(-r[f], r[p]) for p, r in zip(piv, red) if r[f]}
            v[f] = Q(1)
            basis.append(dict(sorted(v.items())))
    return basis


def _as_fractions(basis):
    """(num, den) kernel vectors as {column: Fraction} dicts."""
    return [{j: Q(x, den) for j, x in num.items()} for num, den in basis]


def cleared_images(images):
    """Rational images with each coordinate row scaled to integers by its lcm:
    the same kernel, in the integer form kernel_of_images takes."""
    scale: dict = {}
    for img in images:
        for k, c in img.items():
            scale[k] = lcm(scale.get(k, 1), Q(c).denominator)
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


def _random_matrix(rng, rows, cols):
    return Matrix(
        [[rng.rational(span=6, max_den=5) for _ in range(cols)] for _ in range(rows)]
    )


def test_identity_product():
    m = Matrix([["1/2", 3], [-2, "5/7"]])
    assert mat_mul(Matrix.identity(2), m) == m
    assert mat_mul(m, Matrix.identity(2)) == m


def test_hand_product():
    a = Matrix([[0, 1], [0, 0]])
    b = Matrix([[0, 0], [1, 0]])
    assert mat_mul(a, b) == Matrix([[1, 0], [0, 0]])


def test_random_products_match_naive_oracle():
    rng = SplitMix64(101)
    for _ in range(10):
        a = _random_matrix(rng, 5, 5)
        b = _random_matrix(rng, 5, 5)
        assert mat_mul(a, b) == _naive_mul(a, b)


def test_arithmetic_results_match_public_constructor():
    rng = SplitMix64(303)
    for rows, cols in [(3, 4), (1, 1), (0, 0), (2, 0)]:
        a = _random_matrix(rng, rows, cols)
        b = _random_matrix(rng, rows, cols)
        c = _random_matrix(rng, cols, 2)
        results = [a + b, a - b, -a, a.scale("3/4"), a.scale(0), 2 * a, mat_mul(a, c), a @ c]
        for r in results:
            assert r == Matrix(r.entries) and r.shape == Matrix(r.entries).shape
            assert all(type(x) is Q for row in r.entries for x in row)
        assert (a - b) + b == a and (a + b).shape == (rows, cols)


def test_product_associative():
    rng = SplitMix64(202)
    for _ in range(5):
        a = _random_matrix(rng, 3, 4)
        b = _random_matrix(rng, 4, 2)
        c = _random_matrix(rng, 2, 3)
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeMismatch) as exc:
        mat_mul(Matrix.zeros(2, 3), Matrix.zeros(2, 3))
    assert exc.value.a_shape == (2, 3)
    assert exc.value.b_shape == (2, 3)


def test_kernel_zero_matrix():
    basis = kernel(Matrix.zeros(3, 3))
    assert len(basis) == 3
    for i, v in enumerate(basis):
        assert v[i] == 1


def _apply(m, vec):
    """The matrix-vector product m vec."""
    return [sum((a * x for a, x in zip(row, vec)), Q(0)) for row in m.entries]


def test_kernel_identity():
    assert kernel(Matrix.identity(4)) == []


def test_kernel_known_line():
    m = Matrix([[1, 1, 0], [0, 0, 1]])
    basis = kernel(m)
    assert len(basis) == 1
    v = basis[0]
    # spans (1, -1, 0)
    assert v[0] != 0 and v[0] == -v[1] and v[2] == 0
    assert all(x == 0 for x in _apply(m, v))


def test_kernel_rank_nullity_and_annihilation():
    rng = SplitMix64(303)
    for _ in range(10):
        rows = rng.below(5) + 1
        cols = rng.below(5) + 1
        m = _random_matrix(rng, rows, cols)
        basis = kernel(m)
        assert len(basis) + _rank(m.entries, cols) == cols
        for v in basis:
            assert all(x == 0 for x in _apply(m, v))
        # basis vectors are independent
        if basis:
            assert _rank(basis, cols) == len(basis)


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
        dense = [[v.get(j, 0) for j in range(cols)] for v in _dense_kernel(rows, cols)]
        assert kernel(Matrix(rows, cols)) == dense


def test_kernel_of_images_without_coordinates_is_standard_basis():
    assert kernel_of_images([{}, {}, {}]) == [({j: 1}, 1) for j in range(3)]
    assert kernel_of_images([]) == []
    assert kernel(Matrix.zeros(1, 3)) == kernel(Matrix.zeros(0, 3))
    assert kernel(Matrix.zeros(0, 2)) == [[1, 0], [0, 1]]


def test_matrix_without_rows_keeps_its_columns():
    assert Matrix.zeros(0, 3).shape == (0, 3)
    assert Matrix([], 3).shape == (0, 3) and Matrix([]).shape == (0, 0)
    product = mat_mul(Matrix.zeros(2, 0), Matrix.zeros(0, 3))
    assert product.shape == (2, 3) and product == Matrix.zeros(2, 3)
    assert mat_mul(Matrix.zeros(0, 2), Matrix.zeros(2, 3)).shape == (0, 3)
    assert (Matrix.zeros(0, 3) + Matrix.zeros(0, 3)).shape == (0, 3)
    assert Matrix.zeros(0, 3).scale(2).shape == (0, 3)
    with pytest.raises(ShapeMismatch):
        Matrix.zeros(0, 3) + Matrix.zeros(0, 2)
    with pytest.raises(ValueError):
        Matrix([[1, 2]], 3)


def test_rational_roundtrip():
    rng = SplitMix64(404)
    for _ in range(50):
        q = rng.rational(span=9, max_den=9)
        if q:
            assert q * (1 / q) == 1
            assert Q(q.numerator, q.denominator) == q
