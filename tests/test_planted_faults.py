"""Planted faults in the data the verifiers compute once and reuse.

verify-hodge builds the Mukai line once per c1, with its two basis
operators (the obstruction and the moduli action, as integer images),
and compares the loci once per model, then shares them with every alpha
checked against them.  mukai_sweep pushes each kernel vector through both
operators on integers and hands only a failing one to
check_mukai_implication, which builds the witness: plants in the Mukai
vector or the moduli operator corrupt the implication's conclusion, and a
vector planted into the kernel or a blanked obstruction image corrupts
its hypothesis.  The Duflo round
trip, decided on integers, and the per-case first-order suite read the
Todd root and its inverse from the graded recursions of duflo.sparse.
verify-lie fills one integer table per representation and route, shared
by every diagram check on that representation, and checks each invariant
it finds in one suite.  Each test plants one fault and checks that the
sweep reports it: the suite's lines say "fail", the exit code is 1, and
the witness is reproduced by a direct recomputation.
"""

import json
from fractions import Fraction

from duflo import catalog, hodge, pbw
from duflo.hodge import FormClass, HodgeModel, PolyClass
from duflo.pbw import SymElement, TensorElement, derivation_apply, phi, symmetrize, theta

from test_cli import run_cli
from test_stream_digests import dense_gl2

ARGV = ["verify-hodge", "--dim", "2", "--seed", "0", "--cases", "1"]


def _lines(out, suite):
    return [r for r in map(json.loads, out.splitlines()) if r["suite"] == suite]


def _implication_holds(rpt):
    """A vanishing obstruction forces a vanishing moduli action."""
    return not rpt.obstruction.is_zero() or rpt.moduli_action.is_zero()


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
    rpt = hodge.check_mukai_implication(alpha, hodge.LineBundle(model, c1))
    assert rpt.obstruction.is_zero() and not rpt.moduli_action.is_zero()
    assert rpt.moduli_action.to_obj() == witness["moduli_action"]

    monkeypatch.undo()
    assert _implication_holds(hodge.check_mukai_implication(alpha, hodge.LineBundle(model, c1)))


def test_shifted_moduli_operator_fails_mukai_implication(monkeypatch):
    build = hodge._moduli_operator

    def shifted(line):
        images, den = build(line)
        n = line.model.n
        # the term a1^..^an ^ b*1 (Todd = 1): every term of exp(c1) and of
        # v(L) it can contract carries an a-index it already has, so both
        # its images are 0 and it is a kernel basis vector of its own
        index = (((1 << n) - 1) << n) | 1
        image = dict(images[index])
        image[(0, 0)] = image.get((0, 0), 0) + 1
        return images[:index] + [image] + images[index + 1:], den

    monkeypatch.setattr(hodge, "_moduli_operator", shifted)
    code, out, _ = run_cli(ARGV)
    assert code == 1
    lines = _lines(out, "mukai-implication")
    assert [r["status"] for r in lines] == ["fail"]

    witness = lines[0]["witness"]
    model = HodgeModel(2)
    alpha = PolyClass.from_obj(model, witness["alpha"])
    assert alpha.terms == {(0b11, 0b01): 1}
    c1 = FormClass.from_obj(model, witness["c1"])
    rpt = hodge.check_mukai_implication(alpha, hodge.LineBundle(model, c1))
    assert rpt.obstruction.is_zero() and not rpt.moduli_action.is_zero()
    assert witness["obstruction"] == rpt.obstruction.to_obj() == []
    assert rpt.moduli_action.to_obj() == witness["moduli_action"]
    assert list(rpt.moduli_action.terms) == [(0, 0)]

    monkeypatch.undo()
    assert _implication_holds(hodge.check_mukai_implication(alpha, hodge.LineBundle(model, c1)))


def test_non_kernel_vector_fails_mukai_implication(monkeypatch):
    kernel_of_images = hodge.kernel_of_images

    def planted(images):
        return kernel_of_images(images) + [({0: 1}, 1)]

    monkeypatch.setattr(hodge, "kernel_of_images", planted)
    code, out, err = run_cli(ARGV)
    assert code == 1
    assert "Traceback" not in err
    lines = _lines(out, "mukai-implication")
    assert [r["status"] for r in lines] == ["fail"]
    assert lines[0]["instance"]["kernel_dim"] == 4**2 - 2**2 + 1
    # both loci gain the same vector, so they still agree
    assert _failing_suites(out) == {"mukai-implication"}

    witness = lines[0]["witness"]
    model = HodgeModel(2)
    alpha = PolyClass.from_obj(model, witness["alpha"])
    assert alpha.terms == {(0, 0): 1}
    c1 = FormClass.from_obj(model, witness["c1"])
    rpt = hodge.check_mukai_implication(alpha, hodge.LineBundle(model, c1))
    assert not rpt.obstruction.is_zero()  # vacuous
    assert rpt.obstruction.to_obj() == witness["obstruction"] != []
    assert rpt.moduli_action.to_obj() == witness["moduli_action"]


def test_blanked_obstruction_image_fails_mukai_implication(monkeypatch):
    build = hodge.LineBundle.obstruction

    def blanked(self):
        images, den = build(self)
        # the first basis term with a nonzero moduli image loses its obstruction image
        index = next(i for i, image in enumerate(self.moduli_action()[0]) if image)
        return images[:index] + [{}] + images[index + 1:], den

    monkeypatch.setattr(hodge.LineBundle, "obstruction", blanked)
    code, out, err = run_cli(ARGV)
    assert code == 1
    assert "Traceback" not in err
    lines = _lines(out, "mukai-implication")
    assert [r["status"] for r in lines] == ["fail"]
    assert lines[0]["instance"]["kernel_dim"] == 4**2 - 2**2 + 1

    witness = lines[0]["witness"]
    model = HodgeModel(2)
    alpha = PolyClass.from_obj(model, witness["alpha"])
    c1 = FormClass.from_obj(model, witness["c1"])
    rpt = hodge.check_mukai_implication(alpha, hodge.LineBundle(model, c1))
    assert rpt.obstruction.is_zero() and not rpt.moduli_action.is_zero()
    assert witness["obstruction"] == []
    assert rpt.moduli_action.to_obj() == witness["moduli_action"] != []

    monkeypatch.undo()
    rpt = hodge.check_mukai_implication(alpha, hodge.LineBundle(model, c1))
    assert not rpt.obstruction.is_zero() and not rpt.moduli_action.is_zero()


def test_corrupt_locus_kernel_fails_first_order_basis(monkeypatch):
    loci = hodge._first_order_loci

    def corrupt(model, c1):
        k1, k2 = loci(model, c1)
        return k1, k2[:-1]

    monkeypatch.setattr(hodge, "_first_order_loci", corrupt)
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
    rpt = hodge.first_order_check(model, alpha)
    assert rpt.quarter_identity and rpt.h2_component
    assert rpt.loci_equal is False
    assert rpt.witness == witness

    monkeypatch.undo()
    model = HodgeModel(2, dict(todd.terms))
    alpha = PolyClass.from_obj(model, witness["alpha"])
    assert hodge.first_order_check(model, alpha).loci_equal


def _failing_suites(out):
    return {r["suite"] for r in map(json.loads, out.splitlines()) if r["status"] == "fail"}


def _inverse_missing_last_term(pieces, mul):
    """unit_inverse with u_w = -sum_{i<w} a_i u_{w-i}: the a_w u_0 term is lost."""
    u = [pieces[0]]
    for w in range(1, len(pieces)):
        acc = pieces[0]._like({})
        for i in range(1, w):
            acc = acc + mul(pieces[i], u[w - i])
        u.append(acc.scale(-1))
    return sum(u[1:], u[0])


def _sqrt_without_half(pieces, mul):
    """unit_sqrt with s_w = a_w - sum s_i s_{w-i}: the halving is lost."""
    s = [pieces[0]]
    for w in range(1, len(pieces)):
        acc = pieces[w]
        for i in range(1, w):
            acc = acc - mul(s[i], s[w - i])
        s.append(acc)
    return sum(s[1:], s[0])


def _model_from_witness(witness):
    todd = FormClass.from_obj(HodgeModel(2), witness["todd"])
    model = HodgeModel(2, dict(todd.terms))
    return model, PolyClass.from_obj(model, witness["alpha"])


def _roundtrips(model, alpha):
    back = hodge.duflo_inverse(model, hodge.duflo(model, alpha))
    forth = hodge.duflo(model, hodge.duflo_inverse(model, alpha))
    return back == alpha and forth == alpha


def test_faulty_unit_inverse_fails_duflo_roundtrip(monkeypatch):
    monkeypatch.setattr(hodge, "unit_inverse", _inverse_missing_last_term)
    code, out, _ = run_cli(ARGV[:-1] + ["3"])
    assert code == 1
    lines = _lines(out, "duflo-roundtrip")
    # cases 0 and 1 draw the Todd datum 1, whose inverse root is 1 however
    # the recursion errs; only the inverse Todd root reads it
    assert [r["status"] for r in lines] == ["pass", "pass", "fail"]
    assert _failing_suites(out) == {"duflo-roundtrip"}

    witness = lines[2]["witness"]
    assert not _roundtrips(*_model_from_witness(witness))

    monkeypatch.undo()
    assert _roundtrips(*_model_from_witness(witness))


def test_faulty_unit_sqrt_fails_first_order(monkeypatch):
    monkeypatch.setattr(hodge, "unit_sqrt", _sqrt_without_half)
    code, out, _ = run_cli(ARGV)
    assert code == 1
    lines = _lines(out, "first-order")
    assert [r["status"] for r in lines] == ["fail"]
    # the round trip inverts whatever root it is given, so it still passes
    assert "duflo-roundtrip" not in _failing_suites(out)

    witness = lines[0]["witness"]
    rpt = hodge.first_order_check(*_model_from_witness(witness))
    assert not rpt.quarter_identity
    assert rpt.witness == witness

    monkeypatch.undo()
    rpt = hodge.first_order_check(*_model_from_witness(witness))
    assert rpt.quarter_identity and rpt.h2_component and rpt.loci_equal


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


def test_corrupt_coaction_fails_lie_diagram(monkeypatch):
    build = pbw.LambdaMap.__init__

    def corrupt(self, rep):
        build(self, rep)
        data = [[list(cell) for cell in plane] for plane in self.data]
        data[0][1][0] += 1  # the (0, 1) entry of rho(e), seen only by phi
        self.data = tuple(tuple(tuple(cell) for cell in plane) for plane in data)

    monkeypatch.setattr(pbw.LambdaMap, "__init__", corrupt)
    code, out, _ = run_cli(LIE_ARGV)
    assert code == 1
    failed = _failed_diagrams(out)
    assert {r["instance"]["monomial"] for r in failed} == {"e", "e*f"}
    images = _lines(out, "lie-invariant-image")
    assert [r["status"] for r in images] == ["fail"]  # the Casimir
    assert images[0]["witness"]["diagram_equal"] is False
    # the adjunction check re-derives the coaction and sees the same fault
    assert [r["status"] for r in _lines(out, "lie-adjunction")] == ["fail"]

    rep = _sl2_standard()
    for r in failed:
        witness = r["witness"]
        sym = symmetrize(_sl2_monomial(witness["monomial"]))
        assert witness["path_theta"] != witness["path_contract"]
        assert witness["path_theta"] == theta(rep, sym).to_json()
        # the permutation-sum phi reads the same corrupted coaction
        assert witness["path_contract"] == phi(rep, sym).to_json()

    monkeypatch.undo()
    assert run_cli(LIE_ARGV)[0] == 0


def test_dropped_letter_in_theta_recursion_fails_lie_diagram(monkeypatch):
    e = pbw.SymImages(_sl2_standard()).actions[0]  # d = 1, so R_e is e itself
    product = pbw.matmul_int

    def drop_e(a, b):
        # the theta table multiplies by an integer action matrix on the left
        return tuple((0,) * len(b[0]) for _ in a) if a == e else product(a, b)

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
        sym = symmetrize(_sl2_monomial(witness["monomial"]))
        kept = TensorElement({w: c for w, c in sym.terms.items() if 0 not in w})
        assert witness["path_theta"] == theta(rep, kept).to_json()
        assert witness["path_contract"] == theta(rep, sym).to_json()
    assert run_cli(LIE_ARGV)[0] == 0


def test_faulty_coaction_clearing_fails_lie_diagram_on_dense_gl2(monkeypatch, tmp_path):
    path = str(dense_gl2(tmp_path / "dense_gl2.json"))
    argv = ["verify-lie", "--algebra", path, "--rep", "adjoint", "--max-degree", "2"]
    build = pbw.SymImages.__init__

    def corrupt(self, rep):
        build(self, rep)
        lam = [[list(cell) for cell in plane] for plane in self.lam]
        lam[0][1][0] += 1  # one coaction entry cleared as d*x + 1
        self.lam = tuple(tuple(tuple(cell) for cell in plane) for plane in lam)

    monkeypatch.setattr(pbw.SymImages, "__init__", corrupt)
    code, out, err = run_cli(argv)
    assert code == 1
    assert "Traceback" not in err
    failed = [r for r in _lines(out, "lie-diagram") if r["status"] == "fail"]
    # the entry is the x1-coefficient of [x1, x2]: phi of x1, and of every
    # quadratic monomial that contains x1
    assert [r["instance"]["monomial"] for r in failed] == ["x1", "x1*x1", "x1*x2", "x1*x3", "x1*x4"]
    assert "fail" in {r["status"] for r in _lines(out, "lie-invariant-image")}
    # the adjunction check reads the rational coaction, which is intact
    assert [r["status"] for r in _lines(out, "lie-adjunction")] == ["pass"]
    monkeypatch.undo()

    # recompute both routes with the rational entry the fault put into phi
    rep = catalog.representations(catalog.load_algebra(path))["adjoint"]
    shift = Fraction(1, pbw.SymImages(rep).d)
    coaction = pbw.LambdaMap.__init__

    def shifted(self, rep):
        coaction(self, rep)
        data = [[list(cell) for cell in plane] for plane in self.data]
        data[0][1][0] += shift
        self.data = tuple(tuple(tuple(cell) for cell in plane) for plane in data)

    labels = catalog.load_algebra(path).labels
    with monkeypatch.context() as patch:
        patch.setattr(pbw.LambdaMap, "__init__", shifted)
        for r in failed:
            witness = r["witness"]
            sym = symmetrize(tuple(labels.index(x) for x in witness["monomial"].split("*")))
            assert witness["path_theta"] == theta(rep, sym).to_json()
            assert witness["path_contract"] == phi(rep, sym).to_json()
            assert witness["path_theta"] != witness["path_contract"]
    assert run_cli(argv)[0] == 0


def test_non_invariant_kernel_vector_fails_annihilation(monkeypatch):
    kernel_of_images = pbw.kernel_of_images

    def planted(images):
        return kernel_of_images(images) + [({0: 1}, 1)]

    monkeypatch.setattr(pbw, "kernel_of_images", planted)
    code, out, err = run_cli(
        ["verify-lie", "--algebra", "sl2", "--rep", "standard", "--max-degree", "1"]
    )
    assert code == 1
    assert "Traceback" not in err
    lines = _lines(out, "lie-invariant-annihilation")
    assert [r["status"] for r in lines] == ["fail"]
    assert lines[0]["witness"] == {"element": "1*e"}

    monkeypatch.undo()
    alg = catalog.sl2()
    planted_element = SymElement.monomial(_sl2_monomial("e"))
    assert not derivation_apply(alg, 2, planted_element).is_zero()  # [h, e] = 2e
