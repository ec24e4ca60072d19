"""The integer Hodge checks against plain-Fraction references built here.

The package keeps every class as integer numerators over one denominator,
and check_duflo_roundtrip, the first-order record, the two Mukai operators
and mukai_sweep all run on those integers.  The references below work on
{key: Fraction} dicts, with every sign from the per-bit loops of
test_sign_table, so they share no arithmetic with the package: the Todd
root and its inverse are checked by squaring and multiplying out, exp(c1)
against its power series, the round trip by four contractions, the
record's loci as kernels of Fraction images cleared row by row, and the
operators and the sweep by contracting basis terms and kernel vectors;
the sweep's generator certificate is held to the lemma on all 4^n terms
and to the kernel sweep it skips.  The class path
of a test name is this Fraction reference on the classes' terms.  Each
pair must agree, also under planted faults.
"""

from fractions import Fraction
from math import factorial

import pytest

from duflo import hodge
from duflo.cli import _random_11_terms, _random_poly, _random_todd_terms, _todd_terms_from_c1
from duflo.hodge import FormClass, HodgeModel, PolyClass
from duflo.kernels import kernel_of_images
from duflo.rng import SplitMix64, derive

from test_hodge import _first_order_models
from test_kernels import cleared_images
from test_planted_faults import _doubled, _inverse_missing_last_term, _patch_image, _plus_one
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
        assert _ref_roundtrip(model, alpha) is True
        assert hodge.check_duflo_roundtrip(model, alpha) is None


@pytest.mark.parametrize("faulty", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_both_roundtrip_orders_agree(monkeypatch, n, faulty):
    # D(D^-1 a) = (s ^ u) -| a and D^-1(D a) = (u ^ s) -| a with s, u even:
    # the orders agree even for a wrong inverse root, so one check suffices
    if faulty:
        monkeypatch.setattr(hodge, "graded_power", _inverse_missing_last_term)
    broken = 0
    for model, alpha in _random_models(n, 51):
        root, inv, a = hodge.sqrt_todd(model).terms, hodge.inv_sqrt_todd(model).terms, alpha.terms
        forth = ref_contract(root, ref_contract(inv, a, -1), -1)
        assert forth == ref_contract(inv, ref_contract(root, a, -1), -1)
        broken += forth != a
    assert (broken > 0) == (faulty and n > 1)  # the rank-1 draws never reach the fault


@pytest.mark.parametrize("n", [1, 2, 3])
def test_faulty_inverse_root_fails_both_roundtrips(monkeypatch, n):
    monkeypatch.setattr(hodge, "graded_power", _inverse_missing_last_term)
    rng = SplitMix64(derive(52, n))
    # a Todd datum with a (1,1) part a_1: its inverse root loses -a_1/2 at weight 1
    model = HodgeModel(n, {(0, 0): 1, (1, 1): Fraction(1, 3)})
    for _ in range(3):
        # b*1 makes the weight-1 part of the root act on alpha
        alpha = PolyClass(model, {**_random_poly(model, rng).terms, (0, 1): 1})
        assert _ref_roundtrip(model, alpha) is False
        witness = {"alpha": alpha.to_obj(), "todd": model.todd.to_obj()}
        assert hodge.check_duflo_roundtrip(model, alpha) == witness


def _keys_11(n):
    return [(1 << i, 1 << j) for i in range(n) for j in range(n)]


def _ref_loci(model, c1):
    """The kernel bases of alpha -| c1 and D(alpha) -| v(O), v(O) the Todd root, on (1,1)."""
    root = hodge.sqrt_todd(model).terms
    images1 = [ref_contract({k: 1}, c1.terms, +1) for k in _keys_11(model.n)]
    images2 = [ref_contract(ref_contract(root, {k: 1}, -1), root, +1) for k in _keys_11(model.n)]
    return kernel_of_images(cleared_images(images1)), kernel_of_images(cleared_images(images2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_first_order_loci_match_class_path(n):
    # the record's (k1, k2) are the Fraction route's kernel bases, equal on
    # the sweep's basis models and on c1-generated ones
    rng = SplitMix64(derive(39, n))
    for m, generated in _first_order_models(n, rng):
        c1 = m.todd.component(1, 1).scale(2)
        k1, k2 = hodge._first_order_ops(m)[3]
        assert (k1, k2) == _ref_loci(m, c1)
        assert k1 == k2 or not generated


def _as_fractions(op, model):
    """An operator's integer images over its denominator, as Fraction dicts by term."""
    images, den = op
    zero = FormClass(model)
    return [zero._like(image, den).terms for image in images]


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
    assert _as_fractions(line.full("obstruction"), model) == [
        {key: c for key, c in image.items() if not key[1]} for image in obstruction
    ]
    assert _as_fractions(line.full("moduli_action"), model) == [
        ref_contract(ref_contract(root, {k: 1}, -1), line.mukai.terms, +1) for k in basis
    ]


def _ref_apply(op, alpha) -> dict:
    """sum_c alpha_c images[c] / den over the terms c of alpha, in Fractions;
    images hold every term's image, in canonical order."""
    images = dict(zip(hodge.term_keys(alpha.model.n), _as_fractions(op, alpha.model)))
    out: dict = {}
    for term, c in alpha.terms.items():
        for key, x in images[term].items():
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
            assert _ref_apply(line.full("obstruction"), alpha) == {}
            dens.append(alpha.den)
    assert max(dens) > 1


def _ref_sweep(line, c1):
    """Kernel dimension and the witness of the first kernel vector either
    operator does not kill: c1, the vector and both of its images."""
    ker = hodge.exp_atiyah_kernel(line)
    for alpha in ker:
        hits = [_ref_apply(line.full(op), alpha) for op in ("obstruction", "moduli_action")]
        if any(hits):
            obstruction, moduli_action = hodge.check_mukai_implication(alpha, line)
            assert obstruction.terms == hits[0]
            assert moduli_action.terms == hits[1]
            return len(ker), {
                "c1": c1.to_obj(),
                "alpha": alpha.to_obj(),
                "obstruction": obstruction.to_obj(),
                "moduli_action": moduli_action.to_obj(),
            }
    return len(ker), None


def _corrupt_mukai(monkeypatch):
    build = hodge.LineBundle.__init__

    def corrupt(self, model, c1):
        build(self, model, c1)
        top = (1 << model.n) - 1
        self.mukai = self.mukai + FormClass(model, {(top, top): 1})

    monkeypatch.setattr(hodge.LineBundle, "__init__", corrupt)


def _shift_moduli(monkeypatch):
    # the generator b*1, which the factorization lemma reads
    _patch_image(monkeypatch, "moduli_action", (0, 1), _plus_one)


@pytest.mark.parametrize("plant", [None, _corrupt_mukai, _shift_moduli])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mukai_sweep_matches_per_alpha_loop(monkeypatch, plant, n):
    if plant is not None:
        plant(monkeypatch)
    rng = SplitMix64(derive(54, n))
    model = HodgeModel(n)
    failures = 0
    for _ in range(3):
        c1 = FormClass(model, _random_11_terms(n, rng))
        got = hodge.mukai_sweep(hodge.LineBundle(model, c1))
        assert got == _ref_sweep(hodge.LineBundle(model, c1), c1)
        assert got[0] == 4**n - 2**n
        failures += got[1] is not None
    assert (failures > 0) == (plant is not None)


def test_mukai_sweep_reports_non_kernel_vector(monkeypatch):
    # a doubled b-free image fails the rank check, and the kernel path
    # reports the vector that the doubled column puts into its kernel
    _patch_image(monkeypatch, "obstruction", (1, 0), _doubled)
    model = HodgeModel(2)
    c1 = FormClass(model, {(1, 1): 1, (2, 2): Fraction(-1, 2)})
    got = hodge.mukai_sweep(hodge.LineBundle(model, c1))
    assert got == _ref_sweep(hodge.LineBundle(model, c1), c1)
    assert got[0] == 12 and got[1]["obstruction"] == []
    alpha = PolyClass.from_obj(model, got[1]["alpha"])
    assert max(alpha.terms) == (1, 0)
    monkeypatch.undo()
    assert not hodge.check_mukai_implication(alpha, hodge.LineBundle(model, c1))[0].is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_non_unit_todd_line_takes_the_kernel_path(monkeypatch, n):
    # only a Todd = 1 line is certified; any other runs the kernel sweep,
    # whose witnesses are the Fraction reference's
    certify, certified = hodge._factorization_certified, []
    monkeypatch.setattr(
        hodge, "_factorization_certified", lambda line: certified.append(line) or certify(line)
    )
    rng = SplitMix64(derive(73, n))
    scratch = HodgeModel(n)
    units = failures = 0
    for _ in range(3):
        c1 = FormClass(scratch, _random_11_terms(n, rng))
        model = HodgeModel(n, _todd_terms_from_c1(scratch, c1, rng))
        c1 = FormClass(model, c1.terms)
        got = hodge.mukai_sweep(hodge.LineBundle(model, c1))
        assert got == _ref_sweep(hodge.LineBundle(model, c1), c1)
        unit = model.todd == FormClass.one(model)
        units += unit
        failures += got[1] is not None
        if unit:
            assert got[1] is None
    assert len(certified) == units < 3 and failures > 0


# -- closed forms on the Todd = 1 model ---------------------------------------
def _seeded_lines(seed, counts):
    """(n, line) for Todd = 1 and a seeded dense c1, counts[n] lines at each rank n."""
    for n, count in counts.items():
        rng = SplitMix64(derive(seed, n))
        model = HodgeModel(n)
        for _ in range(count):
            yield n, hodge.LineBundle(model, FormClass(model, _random_11_terms(n, rng)))


def _lemma_on_all_terms(line) -> bool:
    """beta -| exp(c1) = (beta -| exp(c1))_{b-free} ^ exp(c1) for every basis
    term beta, from both operators on all 4^n terms, and each b-free
    column (a, 0) has obstruction image a."""
    model = line.model
    obstruction = _as_fractions(line.full("obstruction"), model)
    moduli = _as_fractions(line.full("moduli_action"), model)
    for (a, b), image, m in zip(hodge.term_keys(model.n), obstruction, moduli):
        if not b and image != {(a, 0): 1}:
            return False
        if m != hodge.wedge(FormClass(model, image), line.exp).terms:
            return False
    return True


def test_mukai_factorization_lemma():
    # the b-free part is the obstruction image, the whole contraction the
    # moduli image, as D = 1 and v(L) = exp(c1) at Todd = 1
    for n, line in _seeded_lines(70, {1: 3, 2: 3, 3: 3, 4: 3, 5: 1}):
        assert _lemma_on_all_terms(line), n
        assert len(hodge.exp_atiyah_kernel(line)) == 4**n - 2**n


@pytest.mark.parametrize("plant", [None, _corrupt_mukai, _shift_moduli])
def test_generator_certificate_agrees_with_lemma_and_kernel_path(monkeypatch, plant):
    # the certificate on 2^n generators holds exactly when the lemma does on
    # all 4^n terms, and a certified sweep is what the kernel path finds
    if plant is not None:
        plant(monkeypatch)
    lines = list(_seeded_lines(72, {1: 3, 2: 3, 3: 3, 4: 2, 5: 1}))
    got = [hodge.mukai_sweep(line) for _, line in lines]
    for _, line in lines:
        assert hodge._factorization_certified(line) is _lemma_on_all_terms(line) is (plant is None)
    monkeypatch.setattr(hodge, "_factorization_certified", lambda line: False)
    assert got == [hodge.mukai_sweep(line) for _, line in lines]
    if plant is None:
        assert got == [(4**n - 2**n, None) for n, _ in lines]


def _det(rows) -> Fraction:
    """Determinant by Fraction elimination with row swaps."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def _minor(c1, a, b) -> Fraction:
    """det C[I, J] for c1 = sum C_ij a_i b_j, I and J the indices of the masks a and b."""
    n = c1.model.n
    cols = [j for j in range(n) if b >> j & 1]
    return _det([[c1.terms.get((1 << i, 1 << j), 0) for j in cols] for i in range(n) if a >> i & 1])


def test_exp_form_is_signed_minors():
    # c1 = sum C_ij a_i b_j: the (I, J) coefficient of exp(c1) is
    # (-1)^(k(k-1)/2) det C[I, J] for |I| = |J| = k, and there is no other term
    for n, line in _seeded_lines(71, {n: 4 for n in range(1, 6)}):
        want = {}
        for a, b in hodge.term_keys(n):
            k = a.bit_count()
            if k == b.bit_count() and (det := _minor(line.c1, a, b)):
                want[(a, b)] = (-1) ** (k * (k - 1) // 2) * det
        assert hodge.exp_form(line.c1).terms == want, n


def test_generator_obstruction_is_signed_minors():
    # the images _factorization_certified reads: the generator (0, J) sends
    # exp(c1) to (-1)^|J| sum over |I| = |J| of det C[I, J] a_I
    for n, line in _seeded_lines(73, {n: 6 for n in range(1, 6)}):
        images = _as_fractions(line.full("obstruction"), line.model)
        for (a0, b), image in zip(hodge.term_keys(n), images, strict=True):
            if a0:
                continue
            k, want = b.bit_count(), {}
            for a in range(1 << n):
                if a.bit_count() == k and (det := _minor(line.c1, a, b)):
                    want[(a, 0)] = (-1) ** k * det
            assert image == want, (n, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_torus_pairing_is_a_determinant(n):
    # the Grassmann Gaussian (Berezin): exp(-c1) ^ exp(c2) = exp(c2 - c1), and
    # its (top, top) coefficient is (-1)^(n(n-1)/2) det(C2 - C1)
    rng = SplitMix64(derive(74, n))
    model, top = HodgeModel(n), (1 << n) - 1
    for _ in range(4):
        c1, c2 = (FormClass(model, _random_11_terms(n, rng)) for _ in range(2))
        pairing = hodge.wedge(hodge.exp_form(-c1), hodge.exp_form(c2))
        assert pairing == hodge.exp_form(c2 - c1)
        want = (-1) ** (n * (n - 1) // 2) * _minor(c2 - c1, top, top)
        assert pairing.terms.get((top, top), 0) == want
