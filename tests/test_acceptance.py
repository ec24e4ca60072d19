"""Acceptance suite: one test per criterion, one printed line per criterion.

Every check is exact (zero tolerance); run with `pytest -s` to see the
per-criterion lines.
"""

import itertools
import json
import operator
import os
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

from duflo import catalog
from duflo.hodge import (
    FormClass,
    HodgeModel,
    LineBundle,
    PolyClass,
    check_mukai_implication,
    contract_Omega_on_T,
    contract_T_on_Omega,
    duflo,
    exp_atiyah_kernel,
    exp_form,
    first_order_check,
    inv_sqrt_todd,
    poly_basis_11,
    wedge,
)
from duflo.pbw import (
    SymElement,
    check_invariant_image,
    check_pbw_diagram,
    derivation_apply,
    invariants_s,
    sym_basis,
    sym_images,
)
from duflo.rng import SplitMix64, derive
from duflo.series import GradedSeries, sqrt_todd, todd
from duflo.sparse import graded_power

from pbw_oracle import (
    TensorElement,
    contract_exp_atiyah,
    mat_mul,
    phi,
    rational_actions,
    symmetrize,
    theta,
)
from test_hodge import first_order_identities
from test_pbw import swap_letters

CATALOG = ["abelian2", "heisenberg3", "sl2", "gl2"]


def _report(num: int, ok: bool, text: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def _catalog_pairs():
    for name in CATALOG:
        alg = catalog.load_algebra(name)
        for rep_name, rep in sorted(catalog.representations(alg).items()):
            yield name, alg, rep_name, rep


def test_criterion_1_diagram_commutes_degree_4():
    t0 = time.perf_counter()
    checked = 0
    for name, alg, rep_name, rep in _catalog_pairs():
        assert rep.dimV <= 5
        images = sym_images(rep)
        for degree in range(1, 5):
            for m in sym_basis(alg.dim, degree):
                where = (name, rep_name, m)
                assert check_pbw_diagram(rep, m) is None, where
                s = SymElement.monomial(m)
                lhs = theta(rep, symmetrize(s))
                rhs = phi(rep, symmetrize(s))
                assert lhs == rhs, where
                assert images.theta(s) == lhs and images.phi(s) == rhs, where
                checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        elapsed < 60.0,
        f"check_pbw_diagram passes and its theta and phi tables equal the "
        f"permutation-sum theta(symmetrize) = phi(symmetrize) on {checked} "
        f"monomials of degree <= 4 over the catalog, exact, in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_phi_theta_short_words():
    checked = 0
    for name, alg, rep_name, rep in _catalog_pairs():
        for k in range(4):
            for w in itertools.product(range(alg.dim), repeat=k):
                t = TensorElement({w: 1})
                assert phi(rep, t) == theta(rep, t), (name, rep_name, w)
                checked += 1
    _report(2, True, f"phi = theta on all {checked} words of length <= 3, exact")


def test_criterion_3_invariants():
    checked = 0
    for name in CATALOG:
        alg = catalog.load_algebra(name)
        reps = catalog.representations(alg)
        for degree in range(1, 5):
            for s in invariants_s(alg, degree):
                for i in range(alg.dim):
                    assert derivation_apply(alg, i, s).is_zero(), (name, degree)
                for rep in reps.values():
                    assert check_invariant_image(rep, s) is None, (name, rep.name, degree)
                    img = phi(rep, symmetrize(s))
                    for mat in rational_actions(rep):
                        assert mat_mul(img, mat) == mat_mul(mat, img), (name, degree)
                checked += 1
    sl2_dim2 = len(invariants_s(catalog.sl2(), 2))
    assert sl2_dim2 == 1
    _report(
        3,
        True,
        f"{checked} invariant elements (degree <= 4) annihilated, with central "
        f"images and check_invariant_image passing; sl2 degree-2 invariant "
        f"space has dimension {sl2_dim2} (= 1)",
    )


def test_criterion_4_todd_coefficients():
    c1 = GradedSeries(2, {(("c1", 1),): 1})
    c2 = GradedSeries(2, {(("c2", 2),): 1})
    t2 = todd(2)
    ok_w1 = t2.weight_parts()[1] == c1.scale(Q(1, 2))
    ok_w2 = t2.weight_parts()[2] == (c1 * c1 + c2).scale(Q(1, 12))
    s1 = sqrt_todd(1)
    ok_sqrt1 = s1.weight_parts()[1] == GradedSeries(1, {(("c1", 1),): 1}).scale(Q(1, 4))
    s6 = sqrt_todd(6)
    ok_square = s6 * s6 == todd(6)
    _report(
        4,
        ok_w1 and ok_w2 and ok_sqrt1 and ok_square,
        "Todd weights 1-2 are c1/2 and (c1^2+c2)/12, sqrt weight 1 is c1/4, "
        "and sqrt(Todd)^2 = Todd exactly to weight 6",
    )


def test_criterion_5_first_order_identities():
    checked = 0
    for n in (1, 2, 3):
        for i in range(n):
            for j in range(n):
                model = HodgeModel(n, {(0, 0): 1, (1 << i, 1 << j): Q(1, 2)})
                for alpha in poly_basis_11(model):
                    quarter, h2, _ = first_order_identities(model, alpha)
                    assert quarter, (n, i, j)
                    assert h2, (n, i, j)
                    assert first_order_check(model, alpha) is None, (n, i, j)
                    checked += 1
    _report(
        5,
        True,
        f"Duflo quarter-move and H2(O)-component identities exact on all "
        f"{checked} basis (1,1) pairs for n <= 3",
    )


def test_criterion_6_mukai_implication_sweep():
    failures = 0
    total_kernel_elements = 0
    for n in (1, 2, 3):
        model = HodgeModel(n)  # todd datum 1
        for case in range(200):
            rng = SplitMix64(derive(1000 + n, case))
            terms = {}
            for i in range(n):
                for j in range(n):
                    q = rng.rational()
                    if q:
                        terms[(1 << i, 1 << j)] = q
            line = LineBundle(model, FormClass(model, terms))
            for alpha in exp_atiyah_kernel(line):
                obstruction, moduli_action = check_mukai_implication(alpha, line)
                total_kernel_elements += 1
                if not (obstruction.is_zero() and moduli_action.is_zero()):
                    failures += 1
    _report(
        6,
        failures == 0,
        f"obstruction-kernel sweep: {total_kernel_elements} kernel elements "
        f"over 200 seeded c1 instances per n <= 3, zero failures",
    )


def test_criterion_7_structural_suites():
    rng = SplitMix64(derive(2000, 0))
    m = HodgeModel(3)
    size = 1 << 3

    def rclass(cls, keep=3):
        terms = {}
        for a in range(size):
            for b in range(size):
                if rng.below(keep) == 0:
                    q = rng.rational()
                    if q:
                        terms[(a, b)] = q
        return cls(m, terms)

    # Koszul sign law on homogeneous pieces
    for _ in range(60):
        a1, b1 = rng.below(size), rng.below(size)
        a2, b2 = rng.below(size), rng.below(size)
        u = FormClass(m, {(a1, b1): 1})
        v = FormClass(m, {(a2, b2): 1})
        d1 = a1.bit_count() + b1.bit_count()
        d2 = a2.bit_count() + b2.bit_count()
        sign = -1 if (d1 * d2) % 2 else 1
        assert wedge(u, v) == wedge(v, u).scale(sign)

    # interior squares vanish
    for j in range(3):
        xi = PolyClass(m, {(0, 1 << j): 1})
        eta = FormClass(m, {(0, 1 << j): 1})
        for _ in range(8):
            v = rclass(FormClass)
            al = rclass(PolyClass)
            assert contract_T_on_Omega(xi, contract_T_on_Omega(xi, v)).is_zero()
            assert contract_Omega_on_T(eta, contract_Omega_on_T(eta, al)).is_zero()

    # module composition laws, both directions
    for _ in range(25):
        u, w = rclass(FormClass), rclass(FormClass)
        al = rclass(PolyClass)
        assert contract_Omega_on_T(wedge(u, w), al) == contract_Omega_on_T(
            u, contract_Omega_on_T(w, al)
        )
        p1, p2 = rclass(PolyClass), rclass(PolyClass)
        v = rclass(FormClass)
        assert contract_T_on_Omega(wedge(p1, p2), v) == contract_T_on_Omega(
            p1, contract_T_on_Omega(p2, v)
        )

    # total contraction equals the leftover-free collapse
    for _ in range(15):
        al = rclass(PolyClass)
        terms = {}
        for i in range(3):
            for j in range(3):
                q = rng.rational()
                if q:
                    terms[(1 << i, 1 << j)] = q
        at = FormClass(m, terms)
        full = contract_T_on_Omega(al, exp_form(at))
        collapse = {(a, b): c for (a, b), c in full.terms.items() if b == 0}
        assert contract_exp_atiyah(al, LineBundle(m, at)) == FormClass(m, collapse)

    # Duflo round trips on random independent todd data
    for _ in range(10):
        terms = {(0, 0): Q(1)}
        for a in range(1, size):
            for b in range(1, size):
                if a.bit_count() == b.bit_count() and rng.below(3) == 0:
                    q = rng.rational()
                    if q:
                        terms[(a, b)] = q
        mt = HodgeModel(3, terms)
        al = PolyClass(mt, dict(rclass(PolyClass).terms))
        inverse = inv_sqrt_todd(mt)
        assert contract_Omega_on_T(inverse, duflo(mt, al)) == al
        assert duflo(mt, contract_Omega_on_T(inverse, al)) == al

    # series round trips
    srng = SplitMix64(derive(2000, 1))
    for _ in range(8):
        s = GradedSeries.scalar(5)
        for w in range(1, 6):
            q = srng.rational()
            if q:
                s = s + GradedSeries(5, {((f"g{w}", w),): q})
        root = graded_power(s.weight_parts(), operator.mul, Q(1, 2))
        assert root * root == s
        assert s * graded_power(s.weight_parts(), operator.mul, Q(-1)) == GradedSeries.scalar(5)

    # symmetrize output is permutation-symmetric
    for mono in [(0, 1, 2), (0, 0, 1), (0, 1, 1, 2)]:
        t = symmetrize(SymElement.monomial(mono))
        for pos in range(len(mono) - 1):
            assert swap_letters(t, pos) == t

    # the bracket relation holds through every catalog representation
    for name, alg, rep_name, rep in _catalog_pairs():
        for i in range(alg.dim):
            for j in range(alg.dim):
                comm = TensorElement({(i, j): 1}) - TensorElement({(j, i): 1})
                bracket = TensorElement(
                    {(k,): c for k, c in enumerate(alg.constants[i][j])}
                )
                assert theta(rep, comm) == theta(rep, bracket)

    # exact matrix product associativity
    mrng = SplitMix64(derive(2000, 2))
    for _ in range(5):
        A = tuple(tuple(mrng.rational(6, 5) for _ in range(4)) for _ in range(3))
        B = tuple(tuple(mrng.rational(6, 5) for _ in range(2)) for _ in range(4))
        C = tuple(tuple(mrng.rational(6, 5) for _ in range(3)) for _ in range(2))
        assert mat_mul(mat_mul(A, B), C) == mat_mul(A, mat_mul(B, C))

    _report(
        7,
        True,
        "Koszul signs, interior squares, module laws, collapse equality, "
        "Duflo round trips, series round trips, symmetry and associativity "
        "suites all exact",
    )


def test_criterion_8_report_determinism():
    cmd = [
        sys.executable,
        "-m",
        "duflo.cli",
        "verify-hodge",
        "--dim",
        "2",
        "--seed",
        "7",
        "--cases",
        "100",
    ]
    # the command imports duflo from this checkout, as the test process does
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    r1 = subprocess.run(cmd, capture_output=True, env=env)
    r2 = subprocess.run(cmd, capture_output=True, env=env)
    ok = (
        r1.returncode == 0
        and r2.returncode == 0
        and r1.stdout == r2.stdout
        and len(r1.stdout.splitlines()) > 0
    )
    for line in r1.stdout.splitlines():
        assert json.loads(line)["status"] == "pass"
    _report(
        8,
        ok,
        f"two runs of verify-hodge --dim 2 --seed 7 --cases 100 emitted "
        f"byte-identical streams ({len(r1.stdout.splitlines())} reports, all pass)",
    )
