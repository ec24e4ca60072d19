"""Exact-arithmetic kernels: lowest terms and canonical row reduction."""

from duflo.kernels import matmul_pairs, rref_int


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
