"""The shared sparse-combination base: arithmetic results and validation.

Arithmetic results skip the public constructors, so every kind's +, -,
scale and product is checked against a rebuild through its public
constructor, for canonical keys, no zero coefficients and Fraction
coefficients only.  The constructors' own validation errors must still
fire.  The graded exponential is checked against the full-power series
it replaced, on series and on even forms, and graded_power's a^(p/q)
against a^p by repeated products, on unit series and on Todd data.  A bounded Hypothesis test
checks that the constructor, +, -, scale, wedge, both contractions,
exp_form, the series product and derivation_apply leave num and den
canonical (den > 0, no zero numerator, gcd 1), and that their terms
equal plain-Fraction references computed here.
"""

import operator
from fractions import Fraction
from itertools import count
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duflo import catalog
from duflo.cli import _random_todd_terms

from duflo.hodge import (
    BidegreeError,
    FormClass,
    HodgeModel,
    ModelMismatch,
    PolyClass,
    contract_Omega_on_T,
    contract_T_on_Omega,
    exp_form,
    wedge,
)
from duflo.lie import LieAlgebra
from duflo.pbw import SymElement, derivation_apply
from duflo.rng import SplitMix64
from duflo.sparse import graded_power
from duflo.series import GradedSeries, TruncationMismatch

from pbw_oracle import TensorElement
from test_hodge_integer import ref_contract, ref_wedge


def _coeffs(rng, keys):
    return {k: rng.rational() for k in keys}


def _tensors(rng):
    words = [(0,), (1, 0), (0, 1), (2, 2, 1), ()]
    return [TensorElement(_coeffs(rng, words)) for _ in range(2)]


def _syms(rng):
    monos = [(), (0,), (1, 0), (2, 1, 1), (2,)]
    return [SymElement(_coeffs(rng, monos)) for _ in range(2)]


def _series(rng):
    monos = [(), (("c1", 1),), (("c1", 1), ("c1", 1)), (("c2", 2),), (("c3", 3),)]
    return [GradedSeries(3, _coeffs(rng, monos)) for _ in range(2)]


MODEL = HodgeModel(2)


def _exterior(kind):
    def build(rng):
        keys = [(a, b) for a in range(4) for b in range(4)]
        return [kind(MODEL, _coeffs(rng, keys)) for _ in range(2)]
    return build


def _rebuild(x):
    if isinstance(x, TensorElement):
        return TensorElement(x.terms)
    if isinstance(x, SymElement):
        return SymElement(x.terms)
    if isinstance(x, GradedSeries):
        return GradedSeries(x.trunc, x.terms)
    return type(x)(x.model, x.terms)


KINDS = {
    "tensor": (_tensors, []),
    "sym": (_syms, [lambda u, v: u * v]),
    "series": (_series, [lambda u, v: u * v]),
    "form": (_exterior(FormClass), [wedge, lambda u, v: contract_T_on_Omega(PolyClass(MODEL, v.terms), u)]),
    "poly": (_exterior(PolyClass), [wedge, lambda u, v: contract_Omega_on_T(FormClass(MODEL, v.terms), u)]),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_results_match_public_constructor(kind):
    build, products = KINDS[kind]
    rng = SplitMix64(404)
    for _ in range(20):
        u, v = build(rng)
        results = [u + v, u - v, v - v, u + v.scale(-1), u.scale(rng.rational()), u.scale(0), 3 * u]
        results += [prod(u, v) for prod in products]
        for r in results:
            assert type(r) is type(u)
            assert r == _rebuild(r)
            assert all(type(c) is Fraction and c != 0 for c in r.terms.values())
    assert (u - u).is_zero() and (u + u) == u.scale(2)


def test_constructor_merges_keys_that_normalise_alike():
    assert SymElement({(1, 0): 1, (0, 1): "2"}).terms == {(0, 1): Fraction(3)}
    assert SymElement({(1, 0): 1, (0, 1): -1}).is_zero()
    c1, c2 = ("c1", 1), ("c2", 2)
    s = GradedSeries(2, {(c2,): 1, (c1, c1): "1/2", (c1, c1, c1): 5})
    assert s.terms == {(c2,): Fraction(1), (c1, c1): Fraction(1, 2)}
    assert GradedSeries(3, {(c2, c1): 1, (c1, c2): 1}).terms == {(c1, c2): Fraction(2)}


def test_series_results_respect_truncation():
    rng = SplitMix64(405)
    u, v = _series(rng)
    assert all(sum(w for _, w in m) <= 3 for m in (u * v).terms)
    assert (u - 1) == u - GradedSeries.scalar(3)


OTHER = HodgeModel(2)


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: FormClass(MODEL, {(4, 0): 1}), BidegreeError),
        (lambda: PolyClass(MODEL, {(0, 4): 1}), BidegreeError),
        (lambda: FormClass(MODEL, {(1, 1): 1}) + FormClass(OTHER, {(1, 1): 1}), ModelMismatch),
        (lambda: wedge(FormClass(MODEL, {(1, 0): 1}), FormClass(OTHER, {(2, 0): 1})), ModelMismatch),
        (lambda: GradedSeries(2) + GradedSeries(3), TruncationMismatch),
        (lambda: GradedSeries.scalar(2) * GradedSeries.scalar(3), TruncationMismatch),
        (lambda: FormClass(MODEL, {(1, 1): 1}) + PolyClass(MODEL, {(1, 1): 1}), TypeError),
        (lambda: wedge(FormClass(MODEL, {(1, 0): 1}), PolyClass(MODEL, {(2, 0): 1})), TypeError),
        (lambda: SymElement({(0,): 1}) - TensorElement({(0,): 1}), TypeError),
        (lambda: SymElement({(0,): 1}) * TensorElement({(0,): 1}), TypeError),
        (lambda: GradedSeries(3, {(("x", 0),): 1}), ValueError),
        (lambda: GradedSeries(3, {(("x", -1),): 1}), ValueError),
        (lambda: GradedSeries(3, {(("c1", 1), ("x", True)): 1}), ValueError),
        (lambda: GradedSeries(3, {(("x", 1.0),): 1}), ValueError),
        (lambda: exp_form(FormClass(MODEL, {(1, 1): 1, (1, 0): 1})), BidegreeError),
    ],
    ids=[
        "form-range",
        "poly-range",
        "form-model",
        "wedge-model",
        "series-add-trunc",
        "series-mul-trunc",
        "form-poly-add",
        "form-poly-wedge",
        "sym-tensor-sub",
        "sym-tensor-mul",
        "series-weight-zero",
        "series-weight-negative",
        "series-weight-bool",
        "series-weight-float",
        "exp-form-odd-degree",
    ],
)
def test_validation_errors_still_raised(make, error):
    with pytest.raises(error):
        make()


# -- the graded exponential ----------------------------------------------------


def power_series_exp(x, one, mul, max_power=None):
    """Sum of x^k / k! from k = 0 until a power vanishes, or past max_power.

    The full-power series that graded_exp replaced, kept as its oracle: it
    shares no recursion with graded_exp, only the product.
    """
    acc = power = one
    for k in count(1) if max_power is None else range(1, max_power + 1):
        power = mul(power, x)
        if power.is_zero():
            break
        acc = acc + power.scale(Fraction(1, factorial(k)))
    return acc


def _gapped_series(trunc, rng):
    """Zero-constant series on generators of a random subset of weights."""
    weights = [w for w in range(1, trunc + 1) if rng.below(3)]
    gens = [(f"x{w}", w) for w in weights] + [(f"y{w}", w) for w in weights[::2]]
    terms = {}
    for _ in range(10):
        if not gens:
            break
        mono = tuple(gens[rng.below(len(gens))] for _ in range(1 + rng.below(3)))
        terms[mono] = rng.rational()
    return GradedSeries(trunc, terms)


def test_series_exp_matches_power_series():
    rng = SplitMix64(406)
    gapped = 0
    for trunc in range(9):
        for _ in range(8):
            s = _gapped_series(trunc, rng)
            one = GradedSeries.scalar(trunc)
            assert s.exp() == power_series_exp(s, one, operator.mul, trunc)
            parts = s.weight_parts()
            gapped += any(not parts[w].terms for w in range(1, trunc)) and not s.is_zero()
    assert gapped > 0


def _by_products(x, e, one, mul):
    """x^e for e >= 0 by repeated products."""
    acc = one
    for _ in range(e):
        acc = mul(acc, x)
    return acc


def _unit_cases():
    """(a, its pieces, one, mul): unit series, gapped ones too, and Todd data at n <= 4."""
    rng = SplitMix64(408)
    for trunc in range(7):
        for _ in range(4):
            one = GradedSeries.scalar(trunc)
            a = one + _gapped_series(trunc, rng)
            yield a, a.weight_parts(), one, operator.mul
    for n in range(1, 5):
        for _ in range(4 if n < 4 else 2):
            a = HodgeModel(n, _random_todd_terms(n, rng)).todd
            yield a, [a.component(p, p) for p in range(n + 1)], FormClass.one(a.model), wedge


@pytest.mark.parametrize("r", ["-1", "-1/2", "1/2", "1/3", "-2/3", "2"])
def test_graded_power_to_the_q_is_a_to_the_p(r):
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    gapped = 0
    for a, pieces, one, mul in _unit_cases():
        # f^q = a^p, written f^q a^(-p) = 1 for p < 0
        f = graded_power(pieces, mul, r)
        lhs = mul(_by_products(f, q, one, mul), _by_products(a, max(-p, 0), one, mul))
        assert lhs == _by_products(a, max(p, 0), one, mul)
        gapped += any(not x.num for x in pieces[1:-1]) and len(a.num) > 1
    assert gapped > 0


def test_graded_power_zero_and_one():
    for a, pieces, one, mul in _unit_cases():
        assert graded_power(pieces, mul, Fraction(0)) == one
        assert graded_power(pieces, mul, Fraction(1)) == a


def _even_form(model, rng):
    keys = [
        (a, b)
        for a in range(1 << model.n)
        for b in range(1 << model.n)
        if (a.bit_count() + b.bit_count()) % 2 == 0 and (a, b) != (0, 0)
    ]
    return FormClass(model, {k: rng.rational() for k in keys if rng.below(2)})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exp_form_matches_power_series(n):
    rng = SplitMix64(407 + n)
    model = HodgeModel(n)
    for _ in range(12):
        v = _even_form(model, rng)
        assert exp_form(v) == power_series_exp(v, FormClass.one(model), wedge)


# -- canonical form against plain-Fraction references ---------------------------

FRACS = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 9, 35]))
EXT_KEYS = [(a, b) for a in range(4) for b in range(4)]
EVEN_KEYS = [k for k in EXT_KEYS if k != (0, 0) and (k[0].bit_count() + k[1].bit_count()) % 2 == 0]
C1, C2, C3 = ("c1", 1), ("c2", 2), ("c3", 3)
SERIES_KEYS = [(), (C1,), (C2,), (C1, C1), (C3,), (C1, C2), (C1, C1, C1)]
SYM_KEYS = [(), (0,), (1,), (2,), (0, 0), (0, 2), (1, 2), (0, 1, 2), (2, 2, 2)]
# sl2 with its brackets scaled by 2/3, so the cleared table has delta = 3
SL2_THIRDS = LieAlgebra(
    [[[c * Fraction(2, 3) for c in row] for row in plane] for plane in catalog.sl2().constants]
)


def _canonical(x) -> bool:
    """num holds nonzero ints, den is a positive int, and they share no factor."""
    values = list(x.num.values())
    return (
        type(x.den) is int
        and x.den > 0
        and all(type(v) is int and v for v in values)
        and gcd(x.den, *values) == 1
    )


def _nonzero(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if c}


def _fr_sum(*parts) -> dict:
    out: dict = {}
    for part in parts:
        for k, c in part.items():
            out[k] = out.get(k, 0) + c
    return _nonzero(out)


def _fr_scale(terms, c) -> dict:
    return _nonzero({k: c * v for k, v in terms.items()})


def _fr_exp(terms) -> dict:
    """sum_k v^k / k! until a power vanishes, on the reference wedge."""
    acc, power, k = {(0, 0): Fraction(1)}, {(0, 0): Fraction(1)}, 0
    while power:
        k += 1
        power = ref_wedge(power, terms)
        acc = _fr_sum(acc, _fr_scale(power, Fraction(1, factorial(k))))
    return acc


def _fr_series_mul(u, v, trunc) -> dict:
    out: dict = {}
    for m1, c1 in u.items():
        for m2, c2 in v.items():
            m = tuple(sorted(m1 + m2))
            if sum(w for _, w in m) <= trunc:
                out[m] = out.get(m, 0) + c1 * c2
    return _nonzero(out)


def _fr_derive(alg, i, terms) -> dict:
    """ad(x_i) letter by letter: each occurrence is replaced by its bracket."""
    out: dict = {}
    for m, c in terms.items():
        for pos, letter in enumerate(m):
            for k, b in enumerate(alg.constants[i][letter]):
                mono = tuple(sorted(m[:pos] + m[pos + 1:] + (k,)))
                out[mono] = out.get(mono, 0) + c * b
    return _nonzero(out)


def _dicts(keys, data, max_size=6):
    return data.draw(st.dictionaries(st.sampled_from(keys), FRACS, max_size=max_size))


def _case_arithmetic(data):
    u, v = _dicts(EXT_KEYS, data), _dicts(EXT_KEYS, data)
    c = data.draw(FRACS)
    x, y = FormClass(MODEL, u), FormClass(MODEL, v)
    return [
        (x, _nonzero(u)),
        (x + y, _fr_sum(u, v)),
        (x - y, _fr_sum(u, _fr_scale(v, -1))),
        (x.scale(c), _fr_scale(u, c)),
    ]


def _case_products(data):
    u, v = _dicts(EXT_KEYS, data), _dicts(EXT_KEYS, data)
    return [
        (wedge(FormClass(MODEL, u), FormClass(MODEL, v)), ref_wedge(u, v)),
        (contract_T_on_Omega(PolyClass(MODEL, u), FormClass(MODEL, v)), ref_contract(u, v, +1)),
        (contract_Omega_on_T(FormClass(MODEL, u), PolyClass(MODEL, v)), ref_contract(u, v, -1)),
    ]


def _case_exp_form(data):
    u = _dicts(EVEN_KEYS, data, max_size=4)
    return [(exp_form(FormClass(MODEL, u)), _fr_exp(u))]


def _case_series(data):
    u, v = _dicts(SERIES_KEYS, data), _dicts(SERIES_KEYS, data)
    return [(GradedSeries(3, u) * GradedSeries(3, v), _fr_series_mul(u, v, 3))]


def _case_derivation(data):
    u = _dicts(SYM_KEYS, data)
    alg = data.draw(st.sampled_from([catalog.sl2(), SL2_THIRDS]))
    i = data.draw(st.integers(0, 2))
    return [(derivation_apply(alg, i, SymElement(u)), _fr_derive(alg, i, u))]


CASES = {
    "arithmetic": _case_arithmetic,
    "products": _case_products,
    "exp-form": _case_exp_form,
    "series-mul": _case_series,
    "derivation": _case_derivation,
}


@pytest.mark.parametrize("case", sorted(CASES))
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_results_are_canonical_and_match_fraction_reference(case, data):
    for result, expected in CASES[case](data):
        assert _canonical(result), (result.num, result.den)
        assert result.terms == expected
