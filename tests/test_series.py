"""Graded series arithmetic and the characteristic-class series."""

from fractions import Fraction as Q

import pytest

from duflo.rng import SplitMix64
from duflo.series import (
    GradedSeries,
    NonUnitConstant,
    chern_character,
    mukai_vector,
    power_sums,
    sqrt_todd,
    todd,
)


def _c(trunc, k):
    return GradedSeries.gen(trunc, f"c{k}", k)


def _substitute(s, mapping):
    """s with generators replaced by whole series (name -> GradedSeries)."""
    acc = GradedSeries(s.trunc)
    for mono, c in s.terms.items():
        term = GradedSeries.scalar(s.trunc, c)
        for name, weight in mono:
            term = term * mapping.get(name, GradedSeries.gen(s.trunc, name, weight))
        acc = acc + term
    return acc


def _random_unit_series(trunc, rng, names=("u", "v")):
    s = GradedSeries.scalar(trunc)
    for name in names:
        for w in range(1, trunc + 1):
            q = rng.rational()
            if q:
                s = s + GradedSeries.gen(trunc, f"{name}{w}", w, q)
    return s


# -- ring arithmetic ------------------------------------------------------------

def test_mul_commutative_associative():
    rng = SplitMix64(11)
    for _ in range(10):
        a = _random_unit_series(4, rng)
        b = _random_unit_series(4, rng)
        c = _random_unit_series(4, rng)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def _random_series(trunc, rng, size=12):
    """Random products of up to three generators c1..c4, weight <= trunc."""
    gens = [(f"c{k}", k) for k in range(1, 5)]
    terms = {}
    for _ in range(size):
        mono = tuple(sorted(gens[rng.below(4)] for _ in range(rng.below(4))))
        if sum(w for _, w in mono) <= trunc:
            terms[mono] = rng.rational()
    return GradedSeries(trunc, terms)


def _all_pairs_product(a, b):
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            if sum(w for _, w in m1 + m2) <= a.trunc:
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, Q(0)) + c1 * c2
    return GradedSeries(a.trunc, out)


def test_mul_matches_all_pairs_product():
    rng = SplitMix64(15)
    boundary_pairs = 0
    for trunc in range(9):
        for _ in range(6):
            a = _random_series(trunc, rng)
            b = _random_series(trunc, rng)
            boundary_pairs += sum(
                1
                for m1 in a.terms
                for m2 in b.terms
                if sum(w for _, w in m1 + m2) == trunc
            )
            assert a * b == _all_pairs_product(a, b)
            assert b * a == _all_pairs_product(b, a)
    assert boundary_pairs > 0  # pairs landing exactly on the truncation


def test_inv_roundtrip():
    rng = SplitMix64(12)
    for _ in range(10):
        a = _random_unit_series(5, rng)
        assert a * a.inv() == GradedSeries.scalar(5)


def test_sqrt_roundtrip():
    rng = SplitMix64(13)
    for _ in range(10):
        a = _random_unit_series(5, rng)
        s = a.sqrt()
        assert s * s == a


def test_sqrt_of_one():
    one = GradedSeries.scalar(6)
    assert one.sqrt() == one


def test_sqrt_requires_unit_constant():
    with pytest.raises(NonUnitConstant):
        (GradedSeries.scalar(3, 2)).sqrt()
    with pytest.raises(NonUnitConstant):
        GradedSeries(3).inv()


def test_exp_log_roundtrip():
    rng = SplitMix64(14)
    for _ in range(10):
        a = _random_unit_series(5, rng)
        assert a.log().exp() == a


# -- Todd ------------------------------------------------------------------------

def test_todd_weight_zero():
    assert todd(0) == GradedSeries.scalar(0)


def test_todd_low_weights_quoted_values():
    t = todd(2)
    want = (
        GradedSeries.scalar(2)
        + _c(2, 1).scale(Q(1, 2))
        + (_c(2, 1) * _c(2, 1)).scale(Q(1, 12))
        + _c(2, 2).scale(Q(1, 12))
    )
    assert t == want


def test_todd_weight_three_from_root_oracle():
    # independent route: three explicit roots x1, x2, x3, the product of
    # the one-variable series, then elementary-symmetric substitution
    N = 3
    roots = [GradedSeries.gen(N, f"x{i}", 1) for i in range(1, 4)]

    def q_series(x):
        # t/(1 - e^{-t}) at t = x, truncated: inverse of sum (-x)^k/(k+1)!
        from math import factorial

        e = GradedSeries(N)
        pw = GradedSeries.scalar(N)
        for k in range(N + 1):
            e = e + pw.scale(Q((-1) ** k, factorial(k + 1)))
            pw = pw * x
        return e.inv()

    prod = q_series(roots[0]) * q_series(roots[1]) * q_series(roots[2])
    e1 = roots[0] + roots[1] + roots[2]
    e2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
    e3 = roots[0] * roots[1] * roots[2]
    substituted = _substitute(todd(N), {"c1": e1, "c2": e2, "c3": e3})
    assert substituted == prod
    # and the printed weight-3 coefficient
    assert todd(3).coefficient((("c1", 1), ("c2", 2))) == Q(1, 24)
    assert todd(3).coefficient((("c1", 1),) * 3) == 0


def test_sqrt_todd_quoted_and_derived_coefficients():
    s = sqrt_todd(2)
    assert s.coefficient((("c1", 1),)) == Q(1, 4)
    assert s.coefficient((("c1", 1), ("c1", 1))) == Q(1, 96)
    assert s.coefficient((("c2", 2),)) == Q(1, 24)
    # squaring oracle at weight 6
    s6 = sqrt_todd(6)
    assert s6 * s6 == todd(6)


def test_todd_whitney_split_check():
    # split rank-2 data: c1 -> x + y, c2 -> xy, higher -> 0 factors the
    # Todd series into the two one-variable series
    N = 5
    x = GradedSeries.gen(N, "x", 1)
    y = GradedSeries.gen(N, "y", 1)
    zero = GradedSeries(N)
    mapping = {"c1": x + y, "c2": x * y}
    for k in range(3, N + 1):
        mapping[f"c{k}"] = zero
    lhs = _substitute(todd(N), mapping)
    rest = {f"c{k}": zero for k in range(2, N + 1)}
    rhs = _substitute(todd(N), {"c1": x, **rest}) * _substitute(todd(N), {"c1": y, **rest})
    assert lhs == rhs


# -- Chern character and Mukai vector ----------------------------------------------

def test_sqrt_todd_squares_to_todd(monkeypatch):
    def refuse(self):
        raise AssertionError("the Todd root is exp(log Todd / 2), not a series sqrt")

    monkeypatch.setattr(GradedSeries, "sqrt", refuse)
    for w in range(11):
        s = sqrt_todd(w)
        assert s * s == todd(w)
    mukai_vector(2, 6)


def _newton_by_products(trunc):
    """p_k = (-1)^(k-1) k e_k + sum_{i<k} (-1)^(i-1) e_i p_{k-i}, by series products."""
    e = [None] + [_c(trunc, k) for k in range(1, trunc + 1)]
    p = [GradedSeries.scalar(trunc, 0)]
    for k in range(1, trunc + 1):
        acc = e[k].scale((-1) ** (k - 1) * k)
        for i in range(1, k):
            acc = acc + (e[i] * p[k - i]).scale((-1) ** (i - 1))
        p.append(acc)
    return p


def test_power_sums_match_newton_products():
    for trunc in range(11):
        assert power_sums(trunc) == _newton_by_products(trunc)


def test_newton_power_sum_weight_two():
    p = power_sums(2)
    want = _c(2, 1) * _c(2, 1) - _c(2, 2).scale(2)
    assert p[2] == want


def test_chern_character_rank_one_line_bundle():
    # set c_{>=2} = 0: the line-bundle exponential
    ch = _substitute(chern_character(1, 2), {"c2": GradedSeries(2)})
    want = GradedSeries.scalar(2) + _c(2, 1) + (_c(2, 1) * _c(2, 1)).scale(Q(1, 2))
    assert ch == want


def test_chern_character_constant_rank():
    ch = _substitute(chern_character(3, 2), {"c1": GradedSeries(2), "c2": GradedSeries(2)})
    assert ch == GradedSeries.scalar(2, 3)


def test_chern_character_weight_two_general():
    ch = chern_character(2, 2)
    assert ch.weight_parts()[2] == (_c(2, 1) * _c(2, 1) - _c(2, 2).scale(2)).scale(Q(1, 2))


def test_mukai_vector_trivial_bundle():
    zero = GradedSeries(3)
    assert _substitute(mukai_vector(1, 3), {"f1": zero, "f2": zero, "f3": zero}) == sqrt_todd(3)


def test_mukai_vector_weight_one_families():
    v = mukai_vector(1, 1)
    assert v.coefficient((("f1", 1),)) == 1
    assert v.coefficient((("c1", 1),)) == Q(1, 4)


def test_mukai_vector_rank_zero_no_classes():
    v = mukai_vector(0, 2)
    sub = {f"f{k}": GradedSeries(2) for k in (1, 2)}
    assert _substitute(v, sub).is_zero()


def test_mukai_matches_series_product():
    assert mukai_vector(2, 4) == chern_character(2, 4, family="f") * sqrt_todd(4)


# -- canonical text ---------------------------------------------------------------

def test_canonical_text_todd():
    assert todd(2).text() == "1 + 1/2*c1 + 1/12*c1^2 + 1/12*c2"


def test_canonical_text_signs_and_units():
    s = chern_character(1, 2)
    assert s.text() == "1 + c1 + 1/2*c1^2 - c2"


def test_canonical_text_zero():
    assert GradedSeries(3).text() == "0"


# -- rendering against the Fraction view ------------------------------------------

def _ref_sorted(s):
    """(weight, monomial, Fraction) of every term, by weight then monomial."""
    return sorted((sum(w for _, w in m), m, c) for m, c in s.terms.items())


def _ref_mono(mono):
    """Runs of equal generator names as powers; '1' if empty."""
    runs = []
    for name, _ in mono:
        if runs and runs[-1][0] == name:
            runs[-1][1] += 1
        else:
            runs.append([name, 1])
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in runs) or "1"


def _ref_text(s):
    """The canonical text rendered from the {monomial: Fraction} view."""
    chunks = []
    for _, mono, c in _ref_sorted(s):
        body = _ref_mono(mono)
        num, den = c.numerator, c.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        piece = mag if body == "1" else body if mag == "1" else f"{mag}*{body}"
        if chunks:
            piece = ("+ " if num > 0 else "- ") + piece
        elif num < 0:
            piece = "-" + piece
        chunks.append(piece)
    return " ".join(chunks) or "0"


def _ref_obj(s):
    return [{"monomial": _ref_mono(m), "weight": w, "coeff": str(c)} for w, m, c in _ref_sorted(s)]


def test_text_and_obj_match_fraction_rendering():
    # every kind at every weight <= 8 and ranks 0-2, and random signed series
    rng = SplitMix64(707)
    for w in range(9):
        kinds = [todd(w), sqrt_todd(w), _random_series(w, rng)]
        kinds += [f(rank, w) for rank in range(3) for f in (chern_character, mukai_vector)]
        for s in kinds:
            assert s.text() == _ref_text(s)
            assert s.to_obj() == _ref_obj(s)
