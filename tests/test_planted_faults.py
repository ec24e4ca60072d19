"""Planted faults in the data the verifiers compute once and reuse.

verify-hodge builds the Mukai line once per c1, with its two operator
hooks (the obstruction and the moduli action, integer images of basis
terms), and the first-order record once per model, then shares them with
every alpha checked against them.  The record, _first_order_ops, is the
one first-order seam: both its plants wrap it, and the reference
identities, recomputed on classes and Fraction kernels, still hold on
every witness.  A corrupt locus kernel fails every alpha of its model, a
doubled right side of (ii) exactly the alpha it moves.  On the Todd = 1
model mukai_sweep first reads the hooks on the b-free terms and the 2^n
generators (0, J): a pass needs each (a, 0) to have obstruction image a,
the rank check, and each generator to meet the factorization lemma.  A
plant either check sees sends the line to the kernel sweep, which pushes
each kernel vector through both operators and hands the first failing one to
check_mukai_implication for the witness: a corrupt Mukai vector or a
shifted generator image (LineBundle.moduli_action) corrupts the
implication's conclusion, and a doubled or blanked b-free image
(LineBundle.obstruction) its hypothesis; every class in the witness
reads back through from_obj.  A plant in a non-generator image or in
kernel_of_images no longer reaches a pass; the module law of the one
contraction loop, pinned by tests, stands in for the terms left out.
The Duflo round trip, decided on u ^ s = 1 and s ^ s = T, and the
per-case first-order suite read the Todd root and its inverse from the
graded recursions of duflo.sparse; a datum both roots misread passes the
first identity and fails the second.
verify-lie fills one integer table per representation and route, shared
by every diagram check on that representation, and checks each invariant
it finds in one suite.  Each test plants one fault and checks that the
sweep reports it: the suite's lines say "fail", the exit code is 1, and
the witness is reproduced by a direct recomputation.
"""

import json
import sys
from fractions import Fraction

from duflo import catalog, hodge, pbw, sparse
from duflo.hodge import FormClass, HodgeModel, PolyClass
from duflo.pbw import SymElement, derivation_apply

import pbw_oracle
from pbw_oracle import TensorElement, phi, symmetrize, theta
from test_cli import run_cli
from test_hodge import first_order_identities
from test_stream_digests import DIGESTS, LIE_DIGESTS, _sha, dense_gl2

ARGV = ["verify-hodge", "--dim", "2", "--seed", "0", "--cases", "1"]


def _json(rows):
    """Fraction rows as a lie-diagram witness writes them."""
    return [[str(x) for x in row] for row in rows]


def _lines(out, suite):
    return [r for r in map(json.loads, out.splitlines()) if r["suite"] == suite]


def _implication_holds(pair):
    """A vanishing obstruction forces a vanishing moduli action."""
    obstruction, moduli_action = pair
    return not obstruction.is_zero() or moduli_action.is_zero()


def test_corrupt_mukai_line_fails_mukai_implication(monkeypatch):
    build = hodge.LineBundle.__init__

    def corrupt(self, model, c1):
        build(self, model, c1)
        top = (1 << model.n) - 1
        self.mukai = self.mukai + FormClass(model, {(top, top): 1})

    monkeypatch.setattr(hodge.LineBundle, "__init__", corrupt)
    code, out, _ = run_cli(ARGV)
    assert code == 1
    lines = _lines(out, "mukai-implication")
    assert [r["status"] for r in lines] == ["fail"]

    witness = lines[0]["witness"]
    model = HodgeModel(2)
    alpha = PolyClass.from_obj(model, witness["alpha"])
    c1 = FormClass.from_obj(model, witness["c1"])
    obstruction, moduli_action = hodge.check_mukai_implication(alpha, hodge.LineBundle(model, c1))
    assert obstruction.is_zero() and not moduli_action.is_zero()
    assert moduli_action.to_obj() == witness["moduli_action"]

    monkeypatch.undo()
    assert _implication_holds(hodge.check_mukai_implication(alpha, hodge.LineBundle(model, c1)))


def _patch_image(monkeypatch, hook, key, change):
    """Make LineBundle.<hook> return change(image) as the image of the basis
    term key, whichever keys it is asked for.  key and the image that change
    reads and returns are by (amask, bmask) pairs; the model's own _key and
    terms translate them to and from the hook's keys."""
    build = getattr(hodge.LineBundle, hook)

    def patched(self, keys):
        images, den = build(self, keys)
        zero = FormClass(self.model)
        target = zero._key(key)
        for i, k in enumerate(keys):
            if k == target:
                pairs = {_pair(zero, t): x for t, x in images[i].items()}
                images[i] = {zero._key(t): x for t, x in change(pairs).items()}
        return images, den

    monkeypatch.setattr(hodge.LineBundle, hook, patched)


def _pair(zero, key):
    """The (amask, bmask) pair of a key of zero's model, read through terms."""
    (pair,) = zero._like({key: 1}).terms
    return pair


def _plus_one(image):
    return {**image, (0, 0): image.get((0, 0), 0) + 1}


def _doubled(image):
    return {k: 2 * x for k, x in image.items()}


def test_shifted_moduli_action_fails_mukai_implication(monkeypatch):
    # the generator b*1: the factorization lemma fails on it, and the kernel
    # vectors through b*1 gain a constant term in their moduli action
    _patch_image(monkeypatch, "moduli_action", (0, 1), _plus_one)
    code, out, _ = run_cli(ARGV)
    assert code == 1
    lines = _lines(out, "mukai-implication")
    assert [r["status"] for r in lines] == ["fail"]
    assert lines[0]["instance"]["kernel_dim"] == 4**2 - 2**2

    witness = lines[0]["witness"]
    model = HodgeModel(2)
    alpha = PolyClass.from_obj(model, witness["alpha"])
    assert (0, 1) in alpha.terms
    c1 = FormClass.from_obj(model, witness["c1"])
    obstruction, moduli_action = hodge.check_mukai_implication(alpha, hodge.LineBundle(model, c1))
    assert obstruction.is_zero() and not moduli_action.is_zero()
    assert witness["obstruction"] == obstruction.to_obj() == []
    assert moduli_action.to_obj() == witness["moduli_action"]
    assert list(moduli_action.terms) == [(0, 0)]

    monkeypatch.undo()
    assert _implication_holds(hodge.check_mukai_implication(alpha, hodge.LineBundle(model, c1)))


def test_non_kernel_vector_fails_mukai_implication(monkeypatch):
    # a doubled b-free image a1 fails the rank check; the kernel path then
    # takes a1 - (what truly maps to 2 a1) for a kernel vector
    _patch_image(monkeypatch, "obstruction", (1, 0), _doubled)
    code, out, err = run_cli(ARGV)
    assert code == 1
    assert "Traceback" not in err
    lines = _lines(out, "mukai-implication")
    assert [r["status"] for r in lines] == ["fail"]
    assert lines[0]["instance"]["kernel_dim"] == 4**2 - 2**2
    assert _failing_suites(out) == {"mukai-implication"}

    witness = lines[0]["witness"]
    model = HodgeModel(2)
    alpha = PolyClass.from_obj(model, witness["alpha"])
    assert max(alpha.terms) == (1, 0)
    c1 = FormClass.from_obj(model, witness["c1"])
    obstruction, moduli_action = hodge.check_mukai_implication(alpha, hodge.LineBundle(model, c1))
    assert witness["obstruction"] == obstruction.to_obj() == []
    assert moduli_action.to_obj() == witness["moduli_action"] != []

    monkeypatch.undo()
    obstruction, _ = hodge.check_mukai_implication(alpha, hodge.LineBundle(model, c1))
    assert not obstruction.is_zero()  # vacuous: alpha is no kernel vector
    assert obstruction == FormClass(model, {(1, 0): -1})


def test_blanked_obstruction_image_fails_mukai_implication(monkeypatch):
    # the term 1: its image is the only one with a constant term, so the
    # rank check fails and the kernel gains 1
    _patch_image(monkeypatch, "obstruction", (0, 0), lambda image: {})
    code, out, err = run_cli(ARGV)
    assert code == 1
    assert "Traceback" not in err
    lines = _lines(out, "mukai-implication")
    assert [r["status"] for r in lines] == ["fail"]
    assert lines[0]["instance"]["kernel_dim"] == 4**2 - 2**2 + 1

    witness = lines[0]["witness"]
    model = HodgeModel(2)
    alpha = PolyClass.from_obj(model, witness["alpha"])
    assert alpha.terms == {(0, 0): 1}
    c1 = FormClass.from_obj(model, witness["c1"])
    obstruction, moduli_action = hodge.check_mukai_implication(alpha, hodge.LineBundle(model, c1))
    assert obstruction.is_zero() and not moduli_action.is_zero()
    assert witness["obstruction"] == []
    assert moduli_action.to_obj() == witness["moduli_action"] != []

    monkeypatch.undo()
    obstruction, moduli_action = hodge.check_mukai_implication(alpha, hodge.LineBundle(model, c1))
    assert not obstruction.is_zero() and not moduli_action.is_zero()


def test_corrupt_locus_kernel_fails_first_order_basis(monkeypatch):
    build = hodge._first_order_ops

    def corrupt(model):
        *ops, (k1, k2) = build(model)
        return *ops, (k1, k2[:-1])

    monkeypatch.setattr(hodge, "_first_order_ops", corrupt)
    code, out, _ = run_cli(ARGV)
    assert code == 1
    lines = _lines(out, "first-order-basis")
    # the per-model result reaches every alpha checked on that model
    assert len(lines) == 16
    assert all(r["status"] == "fail" for r in lines)

    witness = lines[0]["witness"]
    todd = FormClass.from_obj(HodgeModel(2), witness["todd"])
    model = HodgeModel(2, dict(todd.terms))
    alpha = PolyClass.from_obj(model, witness["alpha"])
    assert first_order_identities(model, alpha) == (True, True, True)
    assert hodge.first_order_check(model, alpha) == witness

    monkeypatch.undo()
    model = HodgeModel(2, dict(todd.terms))
    alpha = PolyClass.from_obj(model, witness["alpha"])
    assert first_order_identities(model, alpha) == (True, True, True)
    assert hodge.first_order_check(model, alpha) is None


def _key_11(indices):
    """The (1,1) term of a first-order-basis instance's 1-based indices."""
    return 1 << indices["a"] - 1, 1 << indices["b"] - 1


def test_doubled_right_side_fails_first_order_ii(monkeypatch):
    # (ii)'s right side doubled in the per-model record; (i) and (iii) read
    # other parts, so an alpha fails exactly when alpha -| c1 has a (2, 0) part
    build = hodge._first_order_ops

    def doubled_rhs(model):
        shift, lhs, (images, den), loci = build(model)
        return shift, lhs, ({k: _doubled(image) for k, image in images.items()}, den), loci

    monkeypatch.setattr(hodge, "_first_order_ops", doubled_rhs)
    code, out, _ = run_cli(ARGV)
    assert code == 1
    assert _failing_suites(out) == {"first-order-basis", "first-order"}
    basis = _lines(out, "first-order-basis")
    assert len(basis) == 16
    for r in basis:
        c1_key, alpha_key = (_key_11(r["instance"][name]) for name in ("c1", "alpha"))
        model = HodgeModel(2, {(0, 0): 1, c1_key: Fraction(1, 2)})
        alpha = PolyClass(model, {alpha_key: 1})
        c1 = model.todd.component(1, 1).scale(2)
        moved = not hodge.contract_T_on_Omega(alpha, c1).component(2, 0).is_zero()
        assert r["status"] == ("fail" if moved else "pass")
    assert sum(r["status"] == "fail" for r in basis) == 4

    witnesses = [r["witness"] for r in _lines(out, "first-order") + basis if r["witness"]]
    assert len(witnesses) == 5
    for witness in witnesses:
        model, alpha = _model_from_witness(witness)
        c1 = model.todd.component(1, 1).scale(2)
        assert not hodge.contract_T_on_Omega(alpha, c1).component(2, 0).is_zero()
        assert first_order_identities(model, alpha) == (True, True, True)
        assert hodge.first_order_check(model, alpha) == witness

    monkeypatch.undo()
    for witness in witnesses:
        assert hodge.first_order_check(*_model_from_witness(witness)) is None
    assert run_cli(ARGV)[0] == 0


def _failing_suites(out):
    return {r["suite"] for r in map(json.loads, out.splitlines()) if r["status"] == "fail"}


def _inverse_missing_last_term(pieces, mul, r):
    """graded_power that drops the k = w term for r < 0: the inverse root loses a_w f_0."""
    if r >= 0:
        return sparse.graded_power(pieces, mul, r)
    p, q = r.numerator, r.denominator
    return sparse._graded(pieces, pieces[0], mul, lambda k, w: (k < w) * ((p + q) * k - q * w), q)


def _sqrt_without_half(pieces, mul, r):
    """graded_power with 2r for r > 0: the root's halving is lost, T^(1/2) reads T."""
    return sparse.graded_power(pieces, mul, 2 * r if r > 0 else r)


def _model_from_witness(witness):
    todd = FormClass.from_obj(HodgeModel(2), witness["todd"])
    model = HodgeModel(2, dict(todd.terms))
    return model, PolyClass.from_obj(model, witness["alpha"])


def _roots_invert(witness):
    """u ^ s = 1 for the Todd roots of a round-trip witness's datum, the
    first identity the line decides; the witness's alpha must read back too."""
    model, _ = _model_from_witness(witness)
    u_s = hodge.wedge(hodge.inv_sqrt_todd(model), hodge.sqrt_todd(model))
    return u_s == FormClass.one(model)


def test_faulty_unit_inverse_fails_duflo_roundtrip(monkeypatch):
    monkeypatch.setattr(hodge, "graded_power", _inverse_missing_last_term)
    code, out, _ = run_cli(ARGV[:-1] + ["3"])
    assert code == 1
    lines = _lines(out, "duflo-roundtrip")
    # cases 0 and 1 draw the Todd datum 1, whose inverse root is 1 however
    # the recursion errs; only the inverse Todd root reads it
    assert [r["status"] for r in lines] == ["pass", "pass", "fail"]
    assert _failing_suites(out) == {"duflo-roundtrip"}

    witness = lines[2]["witness"]
    assert not _roots_invert(witness)
    assert hodge.check_duflo_roundtrip(*_model_from_witness(witness)) == witness

    monkeypatch.undo()
    assert _roots_invert(witness)
    assert hodge.check_duflo_roundtrip(*_model_from_witness(witness)) is None


def test_faulty_unit_sqrt_fails_first_order(monkeypatch):
    monkeypatch.setattr(hodge, "graded_power", _sqrt_without_half)
    code, out, _ = run_cli(ARGV)
    assert code == 1
    lines = _lines(out, "first-order")
    assert [r["status"] for r in lines] == ["fail"]
    # case 0 draws the Todd datum 1, whose roots are 1 however the recursion errs
    assert "duflo-roundtrip" not in _failing_suites(out)
    # the inverse root is taken from the datum, not from the faulty root, so
    # the round trip fails once a case draws a datum other than 1
    trips = _lines(run_cli(ARGV[:-1] + ["3"])[1], "duflo-roundtrip")
    assert [r["status"] for r in trips] == ["pass", "pass", "fail"]
    assert not _roots_invert(trips[2]["witness"])

    witness = lines[0]["witness"]
    assert not first_order_identities(*_model_from_witness(witness))[0]
    assert hodge.first_order_check(*_model_from_witness(witness)) == witness

    monkeypatch.undo()
    assert first_order_identities(*_model_from_witness(witness)) == (True, True, True)
    assert hodge.first_order_check(*_model_from_witness(witness)) is None
    assert _roots_invert(trips[2]["witness"])


def _weight_two_doubled(pieces, mul, r):
    """graded_power on the datum with its weight-2 piece doubled: both Todd
    roots read the one wrong datum T + T_2, so u ^ s = 1 still holds."""
    if len(pieces) > 2:
        pieces = [*pieces[:2], pieces[2].scale(2), *pieces[3:]]
    return sparse.graded_power(pieces, mul, r)


def test_doubled_weight_two_datum_fails_duflo_roundtrip(monkeypatch):
    # u ^ s = 1 cannot see a datum both roots misread; s ^ s = T can, on
    # every case whose datum has a weight-2 part
    monkeypatch.setattr(hodge, "graded_power", _weight_two_doubled)
    check, weight_two = hodge.check_duflo_roundtrip, []

    def recorded(model, alpha):
        weight_two.append(not model.todd.component(2, 2).is_zero())
        return check(model, alpha)

    monkeypatch.setattr(hodge, "check_duflo_roundtrip", recorded)
    code, out, _ = run_cli(ARGV[:-1] + ["8"])
    assert code == 1
    assert _failing_suites(out) == {"duflo-roundtrip"}
    lines = _lines(out, "duflo-roundtrip")
    assert [r["status"] == "fail" for r in lines] == weight_two
    assert 0 < sum(weight_two) < len(weight_two)

    witnesses = [r["witness"] for r in lines if r["witness"]]
    for witness in witnesses:
        assert _roots_invert(witness)
        assert check(*_model_from_witness(witness)) == witness

    monkeypatch.undo()
    for witness in witnesses:
        assert check(*_model_from_witness(witness)) is None
    assert run_cli(ARGV[:-1] + ["8"])[0] == 0


# -- verify-lie ------------------------------------------------------------------

LIE_ARGV = ["verify-lie", "--algebra", "sl2", "--rep", "standard", "--max-degree", "2"]


def _sl2_standard():
    return catalog.representations(catalog.sl2())["standard"]


def _sl2_monomial(name):
    labels = catalog.sl2().labels
    return tuple(sorted(labels.index(x) for x in name.split("*")))


def _failed_diagrams(out):
    lines = _lines(out, "lie-diagram")
    assert len(lines) == 9  # the monomials of degree 1 and 2 in e, f, h
    return [r for r in lines if r["status"] == "fail"]


def _corrupt_coaction(monkeypatch):
    """Add 1 to lam[0][1][0] = R_0[0][1], an entry of the integer coaction phi reads."""
    build = pbw.SymImages.__init__

    def corrupt(self, rep):
        build(self, rep)
        lam = [[list(cell) for cell in plane] for plane in self.lam]
        lam[0][1][0] += 1
        self.lam = tuple(tuple(tuple(cell) for cell in plane) for plane in lam)

    monkeypatch.setattr(pbw.SymImages, "__init__", corrupt)


def _shift_coaction(patch, shift):
    """Make the oracle phi read the rational coaction entry (0, 1, 0) plus shift."""
    coaction = pbw_oracle.LambdaMap.__init__

    def shifted(self, rep):
        coaction(self, rep)
        data = [[list(cell) for cell in plane] for plane in self.data]
        data[0][1][0] += shift
        self.data = tuple(tuple(tuple(cell) for cell in plane) for plane in data)

    patch.setattr(pbw_oracle.LambdaMap, "__init__", shifted)


def test_corrupt_coaction_fails_lie_diagram(monkeypatch):
    _corrupt_coaction(monkeypatch)  # the (0, 1) entry of rho(e), seen only by phi
    code, out, _ = run_cli(LIE_ARGV)
    assert code == 1
    failed = _failed_diagrams(out)
    assert {r["instance"]["monomial"] for r in failed} == {"e", "e*f"}
    images = _lines(out, "lie-invariant-image")
    assert [r["status"] for r in images] == ["fail"]  # the Casimir
    assert images[0]["witness"]["diagram_equal"] is False
    # the adjunction check compares the coaction phi reads with the actions
    # theta reads, and names e
    adjunction = _lines(out, "lie-adjunction")
    assert [r["status"] for r in adjunction] == ["fail"]
    assert adjunction[0]["witness"] == {"basis_indices": [0]}
    monkeypatch.undo()

    rep = _sl2_standard()
    assert rep.d == 1  # so the integer fault is a shift by 1 in Q
    with monkeypatch.context() as patch:
        _shift_coaction(patch, 1)
        for r in failed:
            witness = r["witness"]
            sym = symmetrize(SymElement.monomial(_sl2_monomial(witness["monomial"])))
            assert witness["path_theta"] != witness["path_contract"]
            assert witness["path_theta"] == _json(theta(rep, sym))
            # the permutation-sum phi over the shifted rational coaction
            assert witness["path_contract"] == _json(phi(rep, sym))
    assert run_cli(LIE_ARGV)[0] == 0


# The reference code the tests compare the commands against, all in
# tests/pbw_oracle.py: the d! oracle (symmetrize, theta, phi over LambdaMap,
# the Fraction rational coaction, with products by mat_mul, all on the
# Fraction rows of rational_actions) and hodge's one-class view of the
# obstruction.
ORACLE = (
    "symmetrize", "theta", "phi", "LambdaMap", "mat_mul", "rational_actions",
    "contract_exp_atiyah",
)


def _refuse_oracle(monkeypatch):
    """Make every binding of an ORACLE name, in pbw_oracle, a duflo module or
    a test module, raise when called."""
    modules = [m for name, m in list(sys.modules.items())
               if name.startswith(("duflo.", "pbw_oracle", "test_"))]
    refused = 0
    for name in ORACLE:
        orig = getattr(pbw_oracle, name)

        def refuse(*args, _name=f"pbw_oracle.{name}", **kwargs):
            raise AssertionError(f"{_name} called on the command path")

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, key, refuse)
                    refused += 1
    assert refused >= len(ORACLE)


def test_command_path_builds_no_rational_coaction(monkeypatch, tmp_path):
    # the commands read only integer tables and operators: with every
    # oracle name refused, their streams are unchanged
    monkeypatch.setenv("VERIFIER_MAX_DEGREE", "5")
    dense = "verify-lie --algebra {dense} --rep adjoint --max-degree 4"
    lie = "verify-lie --algebra sl2 --rep all --max-degree 5"
    series = "series mukai --weight 13"
    hodge_command = "verify-hodge --dim 2 --seed 0 --cases 3"
    want = {
        dense.format(dense=dense_gl2(tmp_path / "dense_gl2.json")): LIE_DIGESTS[dense],
        lie: LIE_DIGESTS[lie],
        series: DIGESTS[series],
        hodge_command: _sha(run_cli(hodge_command.split())[1]),
    }
    _refuse_oracle(monkeypatch)
    for command, digest in want.items():
        code, out, err = run_cli(command.split())
        assert code == 0, err
        assert _sha(out) == digest, command


def test_hodge_pass_path_builds_no_mukai_kernel_and_no_inverse_twist(monkeypatch):
    # a pass decides the Mukai line on generators and the round trip on
    # u ^ s = 1: kernel_of_images inside mukai_sweep or a full Mukai operator
    # would exit 3; the first-order loci keep their kernels
    sweep, kernel_of_images = hodge.mukai_sweep, hodge.kernel_of_images
    inside, outside = [], []

    def watched(line):
        inside.append(line)
        try:
            return sweep(line)
        finally:
            inside.pop()

    def guarded(images):
        if inside:
            raise AssertionError("kernel_of_images inside mukai_sweep")
        outside.append(images)
        return kernel_of_images(images)

    def refuse(*args):
        raise AssertionError("a full operator on the pass path")

    monkeypatch.setattr(hodge, "mukai_sweep", watched)
    monkeypatch.setattr(hodge, "kernel_of_images", guarded)
    monkeypatch.setattr(hodge.LineBundle, "full", refuse)
    command = "verify-hodge --dim 3 --seed 0 --cases 2"
    code, out, err = run_cli(command.split())
    assert code == 0, err
    assert _sha(out) == DIGESTS[command]
    assert outside


def test_dropped_letter_in_theta_recursion_fails_lie_diagram(monkeypatch):
    e = _sl2_standard().actions[0]  # d = 1, so R_e is e itself
    dv, product = len(e), pbw.matmul_int

    def drop_e(a, b):
        # a theta entry is one product whose left operand sets its letters'
        # actions side by side; e is letter 0, so its block, when present,
        # is the leading dv columns
        if tuple(row[:dv] for row in a) == e:
            a = [(0,) * dv + row[dv:] for row in a]
        return product(a, b)

    monkeypatch.setattr(pbw, "matmul_int", drop_e)
    code, out, _ = run_cli(LIE_ARGV)
    assert code == 1
    failed = _failed_diagrams(out)
    # every entry reached through e's term loses it: theta reads 0 wherever
    # e occurs, which e*e and e*h (images 0) cannot show
    assert {r["instance"]["monomial"] for r in failed} == {"e", "e*f"}
    assert [r["status"] for r in _lines(out, "lie-invariant-image")] == ["fail"]

    monkeypatch.undo()
    rep = _sl2_standard()
    for r in failed:
        witness = r["witness"]
        sym = symmetrize(SymElement.monomial(_sl2_monomial(witness["monomial"])))
        kept = TensorElement({w: c for w, c in sym.terms.items() if 0 not in w})
        assert witness["path_theta"] == _json(theta(rep, kept))
        assert witness["path_contract"] == _json(theta(rep, sym))
    assert run_cli(LIE_ARGV)[0] == 0


def test_dropped_last_weight_in_theta_sum_fails_lie_invariant_image(monkeypatch):
    theta_sum = pbw.SymImages.theta_sum

    def drop_last(self, weights):
        return theta_sum(self, weights[:-1])

    monkeypatch.setattr(pbw.SymImages, "theta_sum", drop_last)
    code, out, _ = run_cli(LIE_ARGV)
    assert code == 1
    # the diagram checks compare table entries, which theta_sum only weighs
    assert _failed_diagrams(out) == []
    lines = list(map(json.loads, out.splitlines()))
    assert len(lines) == 12
    failed = [r for r in lines if r["status"] == "fail"]
    assert [r["suite"] for r in failed] == ["lie-invariant-image"]
    witness = failed[0]["witness"]
    assert witness == {"element": "4*e*f + 1*h*h", "diagram_equal": False, "central": True}

    monkeypatch.undo()
    rep = _sl2_standard()
    (casimir,) = pbw.invariants_s(rep.algebra, 2)
    assert casimir.describe(rep.algebra) == witness["element"]
    # the oracle's theta without the last term misses the oracle's phi
    *kept, _ = casimir.terms.items()
    assert theta(rep, symmetrize(SymElement(dict(kept)))) != phi(rep, symmetrize(casimir))
    assert pbw.check_invariant_image(rep, casimir) is None
    assert run_cli(LIE_ARGV)[0] == 0


def test_faulty_coaction_clearing_fails_lie_diagram_on_dense_gl2(monkeypatch, tmp_path):
    path = str(dense_gl2(tmp_path / "dense_gl2.json"))
    argv = ["verify-lie", "--algebra", path, "--rep", "adjoint", "--max-degree", "2"]
    _corrupt_coaction(monkeypatch)  # one coaction entry cleared as d*x + 1
    code, out, err = run_cli(argv)
    assert code == 1
    assert "Traceback" not in err
    failed = [r for r in _lines(out, "lie-diagram") if r["status"] == "fail"]
    # the entry is the x1-coefficient of [x1, x2]: phi of x1, and of every
    # quadratic monomial that contains x1
    assert [r["instance"]["monomial"] for r in failed] == ["x1", "x1*x1", "x1*x2", "x1*x3", "x1*x4"]
    assert "fail" in {r["status"] for r in _lines(out, "lie-invariant-image")}
    # the adjunction check reads the same integer coaction as phi
    assert [r["status"] for r in _lines(out, "lie-adjunction")] == ["fail"]
    monkeypatch.undo()

    # recompute both routes with the rational entry the fault put into phi
    alg = catalog.load_algebra(path)
    rep = catalog.representations(alg)["adjoint"]
    with monkeypatch.context() as patch:
        _shift_coaction(patch, Fraction(1, rep.d))
        for r in failed:
            witness = r["witness"]
            mono = tuple(alg.labels.index(x) for x in witness["monomial"].split("*"))
            sym = symmetrize(SymElement.monomial(mono))
            assert witness["path_theta"] == _json(theta(rep, sym))
            assert witness["path_contract"] == _json(phi(rep, sym))
            assert witness["path_theta"] != witness["path_contract"]
    assert run_cli(argv)[0] == 0


def test_non_invariant_kernel_vector_fails_annihilation(monkeypatch):
    # planted where the final basis is formed: a vector added to one
    # derivation's kernel in invariants_s is filtered out by the next ones
    kernel_basis = pbw.kernel_basis

    def planted(vecs, ncols):
        return kernel_basis(vecs, ncols) + [({0: 1}, 1)]

    monkeypatch.setattr(pbw, "kernel_basis", planted)
    code, out, err = run_cli(
        ["verify-lie", "--algebra", "sl2", "--rep", "standard", "--max-degree", "1"]
    )
    assert code == 1
    assert "Traceback" not in err
    lines = _lines(out, "lie-invariant-annihilation")
    assert [r["status"] for r in lines] == ["fail"]
    witness = lines[0]["witness"]
    assert witness == {"element": "1*e"}

    monkeypatch.undo()
    alg = catalog.sl2()
    coeff, _, name = witness["element"].partition("*")
    planted_element = SymElement({_sl2_monomial(name): coeff})
    assert not derivation_apply(alg, 2, planted_element).is_zero()  # [h, e] = 2e
    assert pbw.check_invariant_annihilation(alg, planted_element) == witness
