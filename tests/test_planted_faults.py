"""Planted faults in the data that verify-hodge computes once and reuses.

The Mukai line is built once per c1 and the locus comparison once per
model, then shared by every alpha checked against them.  Each test corrupts
one of those shared values and checks that the sweep reports it: the
suite's lines say "fail", the exit code is 1, and the witness re-ingests
and reproduces the failure on its own.
"""

import json

from duflo import hodge
from duflo.hodge import FormClass, HodgeModel, PolyClass

from test_cli import run_cli

ARGV = ["verify-hodge", "--dim", "2", "--seed", "0", "--cases", "1"]


def _lines(out, suite):
    return [r for r in map(json.loads, out.splitlines()) if r["suite"] == suite]


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
    rpt = hodge.check_mukai_implication(model, alpha, c1)
    assert rpt.hypothesis and not rpt.ok and rpt.status == "critical-fail"
    assert rpt.moduli_action.to_obj() == witness["moduli_action"]

    monkeypatch.undo()
    assert hodge.check_mukai_implication(model, alpha, c1).ok


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
