"""The integer Hodge checks against the class path they replaced.

check_duflo_roundtrip, the first-order loci and mukai_sweep decide their
checks on cleared integer term dicts.  Each is compared here with the same
check built from classes in the test: the round trip from duflo and
duflo_inverse, the loci from contract_T_on_Omega, duflo and mukai_line,
and the sweep from check_mukai_implication on each vector of
exp_atiyah_kernel.  Each pair must agree, also under planted faults.
"""

from fractions import Fraction

import pytest

from duflo import hodge
from duflo.cli import _random_11_terms, _random_poly, _random_todd_terms, _todd_terms_from_c1
from duflo.hodge import FormClass, HodgeModel, PolyClass
from duflo.linalg import kernel_of_images
from duflo.rng import SplitMix64, derive

from test_planted_faults import _inverse_missing_last_term, _roundtrips


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_duflo_roundtrip_matches_class_path(n):
    rng = SplitMix64(derive(51, n))
    for _ in range(4 if n < 4 else 2):
        model = HodgeModel(n, _random_todd_terms(n, rng))
        alpha = _random_poly(model, rng)
        assert hodge.check_duflo_roundtrip(model, alpha) is _roundtrips(model, alpha) is True


@pytest.mark.parametrize("n", [1, 2, 3])
def test_faulty_inverse_root_fails_both_roundtrips(monkeypatch, n):
    monkeypatch.setattr(hodge, "unit_inverse", _inverse_missing_last_term)
    rng = SplitMix64(derive(52, n))
    # a Todd root with a (1,1) part: its inverse loses -a_1 at weight 1
    model = HodgeModel(n, {(0, 0): 1, (1, 1): Fraction(1, 3)})
    for _ in range(3):
        # b*1 makes the weight-1 part of the root act on alpha
        alpha = PolyClass(model, {**_random_poly(model, rng).terms, (0, 1): 1})
        assert hodge.check_duflo_roundtrip(model, alpha) is _roundtrips(model, alpha) is False


def _class_loci(model, c1):
    """The kernel bases of alpha -| c1 and D(alpha) -| v(O), from classes."""
    basis = hodge.poly_basis_11(model)
    v_sheaf = hodge.mukai_line(model, FormClass.zero(model))
    k1 = kernel_of_images([hodge.contract_T_on_Omega(beta, c1).terms for beta in basis])
    k2 = kernel_of_images(
        [hodge.contract_T_on_Omega(hodge.duflo(model, beta), v_sheaf).terms for beta in basis]
    )
    return k1, k2


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
        assert got == _class_loci(model, c1)
        assert got[0] == got[1]


def _class_sweep(model, line):
    """The per-alpha loop: kernel dimension and first kernel vector that fails."""
    ker = hodge.exp_atiyah_kernel(line)
    for alpha in ker:
        rpt = hodge.check_mukai_implication(alpha, line)
        if not rpt.hypothesis or not rpt.ok:
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
        assert got == _class_sweep(model, line)
        assert got[0] == 4**n - 2**n
        failures += got[1] is not None
    assert (failures > 0) == (plant is not None)


def test_mukai_sweep_reports_non_kernel_vector(monkeypatch):
    def planted(images):
        return kernel_of_images(images) + [{0: Fraction(1)}]

    monkeypatch.setattr(hodge, "kernel_of_images", planted)
    model = HodgeModel(2)
    line = hodge.LineBundle(model, FormClass(model, {(1, 1): 1, (2, 2): Fraction(-1, 2)}))
    got = hodge.mukai_sweep(line)
    assert got == _class_sweep(model, line) == (13, PolyClass(model, {(0, 0): 1}))
