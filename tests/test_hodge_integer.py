"""The integer Hodge checks against plain-Fraction references built here.

The package keeps every class as integer numerators over one denominator,
and check_duflo_roundtrip, the first-order loci, the two Mukai operators
and mukai_sweep all run on those integers.  The references below work on
{key: Fraction} dicts, with every sign from the per-bit loops of
test_sign_table, so they share no arithmetic with the package: the Todd
root and its inverse are checked by squaring and multiplying out, exp(c1)
against its power series, the round trip by four contractions, the loci
as kernels of Fraction images cleared row by row, and the operators and
the sweep by contracting basis terms and kernel vectors.  The class path
of a test name is this Fraction reference on the classes' terms.  Each
pair must agree, also under planted faults.
"""

from fractions import Fraction
from math import factorial

import pytest

from duflo import hodge
from duflo.cli import _random_11_terms, _random_poly, _random_todd_terms, _todd_terms_from_c1
from duflo.hodge import FormClass, HodgeModel, PolyClass
from duflo.linalg import kernel_of_images
from duflo.rng import SplitMix64, derive

from test_linalg import cleared_images
from test_planted_faults import _inverse_missing_last_term
from test_sign_table import contract_term, wedge_term


def _collect(hits) -> dict:
    """Sum the (sign, amask, bmask, coefficient) hits into a dict, zeros dropped."""
    out: dict = {}
    for sign, a, b, c in hits:
        out[(a, b)] = out.get((a, b), 0) + sign * c
    return {k: c for k, c in out.items() if c}


def ref_wedge(u: dict, v: dict) -> dict:
    return _collect(
        (*hit, c1 * c2)
        for (a1, b1), c1 in u.items()
        for (a2, b2), c2 in v.items()
        if (hit := wedge_term(a1, b1, a2, b2))
    )


def ref_contract(act: dict, tgt: dict, pair_sign: int) -> dict:
    return _collect(
        (*hit, c1 * c2)
        for (a1, b1), c1 in act.items()
        for (a2, b2), c2 in tgt.items()
        if (hit := contract_term(a1, b1, a2, b2, pair_sign))
    )


def ref_exp(v: dict) -> dict:
    """sum_k v^k / k! until a power vanishes."""
    acc, power, k = {(0, 0): Fraction(1)}, {(0, 0): Fraction(1)}, 0
    while power:
        k += 1
        power = ref_wedge(power, v)
        for key, c in power.items():
            acc[key] = acc.get(key, 0) + c / factorial(k)
    return {key: c for key, c in acc.items() if c}


def _random_models(n, seed):
    rng = SplitMix64(derive(seed, n))
    for _ in range(4 if n < 4 else 2):
        model = HodgeModel(n, _random_todd_terms(n, rng))
        yield model, _random_poly(model, rng)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_todd_roots_square_and_invert(n):
    for model, _ in _random_models(n, 50):
        root = hodge.sqrt_todd(model).terms
        assert ref_wedge(root, root) == model.todd.terms
        assert ref_wedge(root, hodge.inv_sqrt_todd(model).terms) == {(0, 0): 1}


def _ref_roundtrip(model, alpha):
    """D^-1(D(alpha)) and D(D^-1(alpha)) against alpha, from the package's two roots."""
    root, inv, a = hodge.sqrt_todd(model).terms, hodge.inv_sqrt_todd(model).terms, alpha.terms
    back = ref_contract(inv, ref_contract(root, a, -1), -1)
    return back == a == ref_contract(root, ref_contract(inv, a, -1), -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_duflo_roundtrip_matches_class_path(n):
    for model, alpha in _random_models(n, 51):
        assert hodge.check_duflo_roundtrip(model, alpha) is _ref_roundtrip(model, alpha) is True


@pytest.mark.parametrize("n", [1, 2, 3])
def test_faulty_inverse_root_fails_both_roundtrips(monkeypatch, n):
    monkeypatch.setattr(hodge, "unit_inverse", _inverse_missing_last_term)
    rng = SplitMix64(derive(52, n))
    # a Todd root with a (1,1) part: its inverse loses -a_1 at weight 1
    model = HodgeModel(n, {(0, 0): 1, (1, 1): Fraction(1, 3)})
    for _ in range(3):
        # b*1 makes the weight-1 part of the root act on alpha
        alpha = PolyClass(model, {**_random_poly(model, rng).terms, (0, 1): 1})
        assert hodge.check_duflo_roundtrip(model, alpha) is _ref_roundtrip(model, alpha) is False


def _keys_11(n):
    return [(1 << i, 1 << j) for i in range(n) for j in range(n)]


def _ref_loci(model, c1):
    """The kernel bases of alpha -| c1 and D(alpha) -| v(O), v(O) the Todd root, on (1,1)."""
    root = hodge.sqrt_todd(model).terms
    images1 = [ref_contract({k: 1}, c1.terms, +1) for k in _keys_11(model.n)]
    images2 = [ref_contract(ref_contract(root, {k: 1}, -1), root, +1) for k in _keys_11(model.n)]
    return kernel_of_images(cleared_images(images1)), kernel_of_images(cleared_images(images2))


def _loci_models(n):
    """Every basis model of the CLI sweep, and c1-generated models, with their c1."""
    for i in range(n):
        for j in range(n):
            yield HodgeModel(n, {(0, 0): 1, (1 << i, 1 << j): Fraction(1, 2)})
    rng = SplitMix64(derive(53, n))
    for _ in range(4):
        scratch = HodgeModel(n)
        c1 = FormClass(scratch, _random_11_terms(n, rng))
        yield HodgeModel(n, _todd_terms_from_c1(scratch, c1, rng))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_first_order_loci_match_class_path(n):
    for model in _loci_models(n):
        c1 = model.todd.component(1, 1).scale(2)
        got = hodge._first_order_loci(model, c1)
        assert got == _ref_loci(model, c1)
        assert got[0] == got[1]


def _as_fractions(op):
    """An operator's integer images over its denominator, as Fraction dicts."""
    images, den = op
    return [{k: Fraction(x, den) for k, x in image.items() if x} for image in images]


@pytest.mark.parametrize("todd", ["one", "from-c1"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mukai_operators_match_fraction_reference(n, todd):
    rng = SplitMix64(derive(55, n))
    scratch = HodgeModel(n)
    c1 = FormClass(scratch, _random_11_terms(n, rng))
    model = HodgeModel(n, None if todd == "one" else _todd_terms_from_c1(scratch, c1, rng))
    line = hodge.LineBundle(model, FormClass(model, c1.terms))
    exp = ref_exp(c1.terms)
    root = hodge.sqrt_todd(model).terms
    assert line.exp.terms == exp
    assert line.mukai.terms == ref_wedge(exp, root)
    basis = [(a, b) for a in range(1 << n) for b in range(1 << n)]
    obstruction = [ref_contract({k: 1}, exp, +1) for k in basis]
    assert _as_fractions(line.obstruction()) == [
        {key: c for key, c in image.items() if not key[1]} for image in obstruction
    ]
    assert _as_fractions(line.moduli_action()) == [
        ref_contract(ref_contract(root, {k: 1}, -1), line.mukai.terms, +1) for k in basis
    ]


def _ref_apply(op, alpha) -> dict:
    """sum_c alpha_c images[c] / den over the terms c of alpha, in Fractions."""
    images, n = _as_fractions(op), alpha.model.n
    out: dict = {}
    for (a, b), c in alpha.terms.items():
        for key, x in images[(a << n) | b].items():
            out[key] = out.get(key, 0) + c * x
    return {key: c for key, c in out.items() if c}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exp_atiyah_kernel_is_the_canonical_basis(n):
    # in the kernel, of full dimension, 1 at each vector's last term and 0 at
    # every other vector's last term: the one reduced echelon basis
    rng = SplitMix64(derive(61, n))
    model = HodgeModel(n)
    dens = []
    for _ in range(3):
        line = hodge.LineBundle(model, FormClass(model, _random_11_terms(n, rng)))
        ker = hodge.exp_atiyah_kernel(line)
        assert len(ker) == 4**n - 2**n
        last = [max(alpha.terms) for alpha in ker]
        assert last == sorted(set(last))
        for alpha, key in zip(ker, last):
            assert alpha.terms[key] == 1 and set(alpha.terms) & set(last) == {key}
            assert _ref_apply(line.obstruction(), alpha) == {}
            dens.append(alpha.den)
    assert max(dens) > 1


def _ref_sweep(line):
    """Kernel dimension and the first kernel vector either operator does not kill."""
    ker = hodge.exp_atiyah_kernel(line)
    for alpha in ker:
        hits = [_ref_apply(op(), alpha) for op in (line.obstruction, line.moduli_action)]
        if any(hits):
            rpt = hodge.check_mukai_implication(alpha, line)
            assert {(a, 0): c for a, c in rpt.obstruction.terms.items()} == hits[0]
            assert rpt.moduli_action.terms == hits[1]
            return len(ker), alpha
    return len(ker), None


def _corrupt_mukai(monkeypatch):
    build = hodge.LineBundle.__init__

    def corrupt(self, model, c1):
        build(self, model, c1)
        top = (1 << model.n) - 1
        self.mukai = self.mukai + FormClass(model, {(top, top): 1})

    monkeypatch.setattr(hodge.LineBundle, "__init__", corrupt)


def _shift_moduli(monkeypatch):
    build = hodge._moduli_operator

    def shifted(line):
        images, den = build(line)
        index = (((1 << line.model.n) - 1) << line.model.n) | 1
        image = dict(images[index])
        image[(0, 0)] = image.get((0, 0), 0) + 1
        return images[:index] + [image] + images[index + 1:], den

    monkeypatch.setattr(hodge, "_moduli_operator", shifted)


@pytest.mark.parametrize("plant", [None, _corrupt_mukai, _shift_moduli])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mukai_sweep_matches_per_alpha_loop(monkeypatch, plant, n):
    if plant is not None:
        plant(monkeypatch)
    rng = SplitMix64(derive(54, n))
    model = HodgeModel(n)
    failures = 0
    for _ in range(3):
        line = hodge.LineBundle(model, FormClass(model, _random_11_terms(n, rng)))
        got = hodge.mukai_sweep(line)
        assert got == _ref_sweep(line)
        assert got[0] == 4**n - 2**n
        failures += got[1] is not None
    assert (failures > 0) == (plant is not None)


def test_mukai_sweep_reports_non_kernel_vector(monkeypatch):
    def planted(images):
        return kernel_of_images(images) + [({0: 1}, 1)]

    monkeypatch.setattr(hodge, "kernel_of_images", planted)
    model = HodgeModel(2)
    line = hodge.LineBundle(model, FormClass(model, {(1, 1): 1, (2, 2): Fraction(-1, 2)}))
    got = hodge.mukai_sweep(line)
    assert got == _ref_sweep(line) == (13, PolyClass(model, {(0, 0): 1}))
