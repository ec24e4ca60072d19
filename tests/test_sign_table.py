"""Hodge signs from the one sign rule against per-bit loops.

merge_sign and contract_term below compute each sign bit by bit, one
index at a time.  They are the reference for duflo.hodge, which reads
every sign of wedge and both contractions from one rule on word
positions, _sign_mask.  The rule is checked against merge_sign on every
pair of terms, and the products through the package's own wedge and
contractions.  The target class has every basis term, each with its own
coefficient.  For one acting term the map from target term to result term
is injective, so the result dict shows, for every pair, whether it was
skipped and the (sign, amask, bmask) it gave.
"""

import pytest

from duflo.hodge import (
    FormClass,
    HodgeModel,
    PolyClass,
    _sign_mask,
    contract_Omega_on_T,
    contract_T_on_Omega,
    wedge,
)


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def merge_sign(first, second):
    """Permutation sign for merging two ascending disjoint index blocks."""
    inv = 0
    for i in _bits(first):
        inv += (second & ((1 << i) - 1)).bit_count()
    return -1 if inv & 1 else 1


def contract_term(a_act, b_act, a_tgt, b_tgt, pair_sign):
    """The word [a(a_act), dual(b_act)] on one target term, duals first.

    Dual generators contract in descending index order, each past the
    target's a-part and its lower b-indices, with pair_sign per pair; then
    a(a_act) wedges in.  Returns (sign, amask, bmask), or None when a dual
    has no partner or an a-index repeats.
    """
    if b_act & ~b_tgt or a_act & a_tgt:
        return None
    sign = 1
    b = b_tgt
    jumps_a = a_tgt.bit_count()
    for j in reversed(_bits(b_act)):
        jumps = jumps_a + (b & ((1 << j) - 1)).bit_count()
        if jumps & 1:
            sign = -sign
        if pair_sign < 0:
            sign = -sign
        b &= ~(1 << j)
    sign *= merge_sign(a_act, a_tgt)
    return sign, a_act | a_tgt, b


def wedge_term(a1, b1, a2, b2):
    """Graded-commutative product of two terms: (sign, amask, bmask) or None."""
    if a1 & a2 or b1 & b2:
        return None
    sign = merge_sign(a1, a2) * merge_sign(b1, b2)
    if (b1.bit_count() * a2.bit_count()) & 1:
        sign = -sign
    return sign, a1 | a2, b1 | b2


def _terms(n):
    size = 1 << n
    return [(a, b) for a in range(size) for b in range(size)]


def _expected(act, targets, term_fn):
    """{result key: sign * coefficient} over the targets the oracle keeps."""
    out = {}
    for (a, b), c in targets.items():
        hit = term_fn(*act, a, b)
        if hit is not None:
            sign, ka, kb = hit
            assert (ka, kb) not in out  # injective for one acting term
            out[(ka, kb)] = sign * c
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sign_rule_is_merge_sign(n):
    # the word of (a1, b1) followed by that of (a2, b2) merges the position
    # blocks r = (b << n) | a, a_i at i and b_j at n + j, overlapping or not
    key = FormClass(HodgeModel(n))._key
    terms = _terms(n)
    for a1, b1 in terms:
        mask = _sign_mask(key((a1, b1)), n)
        for a2, b2 in terms:
            want = merge_sign((b1 << n) | a1, (b2 << n) | a2)
            assert (-1) ** (key((a2, b2)) & mask).bit_count() == want, (a1, b1, a2, b2)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("pair_sign", [+1, -1])
def test_contractions_match_bit_loop(n, pair_sign):
    model = HodgeModel(n)
    act_kind, tgt_kind, contract = (
        (PolyClass, FormClass, contract_T_on_Omega)
        if pair_sign > 0
        else (FormClass, PolyClass, contract_Omega_on_T)
    )
    targets = {key: i + 1 for i, key in enumerate(_terms(n))}
    tgt = tgt_kind(model, targets)
    skipped = 0
    for act in _terms(n):
        got = contract(act_kind(model, {act: 1}), tgt).terms
        want = _expected(act, targets, lambda *q: contract_term(*q, pair_sign))
        assert got == want, act
        skipped += len(targets) - len(want)
    assert 0 < skipped < len(targets) ** 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", [FormClass, PolyClass])
def test_wedge_matches_bit_loop(n, kind):
    model = HodgeModel(n)
    targets = {key: i + 1 for i, key in enumerate(_terms(n))}
    v = kind(model, targets)
    for u in _terms(n):
        got = wedge(kind(model, {u: 1}), v).terms
        assert got == _expected(u, targets, wedge_term), u
