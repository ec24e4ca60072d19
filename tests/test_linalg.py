"""Exact matrix arithmetic against independent oracles."""

from fractions import Fraction as Q
from math import gcd, lcm

import pytest

from duflo.kernels import kernel_of_images, matmul_int
from duflo.lie import Matrix
from duflo.rng import SplitMix64

from pbw_oracle import mat_mul
from test_kernels import dense_rref_int


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
            assert Matrix(got, cols) == mat_mul(Matrix(a), Matrix(b))


def test_arithmetic_results_match_public_constructor():
    rng = SplitMix64(303)
    for rows, cols in [(3, 4), (1, 1), (0, 0), (2, 0)]:
        ints = _random_ints(rng, rows, cols)
        den = rng.below(6) + 1
        r = Matrix.over(ints, den, cols)
        want = Matrix([[Q(x, den) for x in row] for row in ints], cols)
        assert r == want and r.shape == want.shape == (rows, cols)
        assert all(type(x) is Q for row in r.entries for x in row)


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


def test_matrix_without_rows_keeps_its_columns():
    assert Matrix([], 3).shape == (0, 3) and Matrix([]).shape == (0, 0)
    assert Matrix.over([], 1, 3).shape == (0, 3) and Matrix.over([[], []], 1, 0).shape == (2, 0)
    with pytest.raises(ValueError):
        Matrix([[1, 2]], 3)


def test_rational_roundtrip():
    rng = SplitMix64(404)
    for _ in range(50):
        q = rng.rational(span=9, max_den=9)
        if q:
            assert q * (1 / q) == 1
            assert Q(q.numerator, q.denominator) == q
