"""Lie algebra and representation validation.

The constructors decide Jacobi and the bracket relation in Z, from
tables cleared of denominators.  jacobi_reference and bracket_reference
below are the Fraction checks they replaced: the cyclic sum of
[[x_i, x_j], x_k] and the commutator [rho(x_i), rho(x_j)] against
sum_k c_ijk rho(x_k), each over every basis pair or triple in
lexicographic order.  The oracle tests run both on valid and on
perturbed inputs and require the same verdict and the same exception.
"""

import importlib.util
import os
from fractions import Fraction
from math import lcm

import pytest

from duflo import catalog
from duflo.lie import (
    AntisymmetryViolation,
    BracketMismatch,
    JacobiViolation,
    LieAlgebra,
    Representation,
    adjoint_rep,
    algebra_from_json,
)
from duflo.pbw import adjunction_check
from duflo.sparse import parse_rational

from pbw_oracle import rational_actions
from test_stream_digests import dense_gl2

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_abelian_valid():
    alg = catalog.abelian(2)
    assert alg.dim == 2
    assert all(c == 0 for p in alg.constants for r in p for c in r)


def test_sl2_valid_and_brackets():
    alg = catalog.sl2()
    # [e, f] = h
    assert alg.constants[0][1] == (0, 0, 1)
    # [h, e] = 2e
    assert alg.constants[2][0] == (2, 0, 0)


def test_antisymmetry_violation():
    # [x, y] = x but [y, x] = x as well
    c = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    with pytest.raises(AntisymmetryViolation) as exc:
        LieAlgebra(c)
    assert exc.value.pair == (0, 1)


def test_jacobi_violation_names_triple():
    # [x,y] = z, [y,z] = x, [z,x] = x: cyclic sum is [[z,x],y] = z != 0
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2] = 1
    c[1][0][2] = -1
    c[1][2][0] = 1
    c[2][1][0] = -1
    c[2][0][0] = 1
    c[0][2][0] = -1
    with pytest.raises(JacobiViolation) as exc:
        LieAlgebra(c)
    assert exc.value.triple == (0, 1, 2)


def test_sl2_standard_rep_valid():
    rep = catalog.representations(catalog.sl2())["standard"]
    assert rep.dimV == 2
    assert rational_actions(rep)[2] == ((1, 0), (0, -1))


def test_swapped_rep_rejected():
    alg = catalog.sl2()
    e = [[0, 1], [0, 0]]
    f = [[0, 0], [1, 0]]
    h = [[1, 0], [0, -1]]
    with pytest.raises(BracketMismatch) as exc:
        Representation(alg, [f, e, h])  # e and f exchanged
    assert exc.value.pair == (0, 1)


def test_axiom_violations_are_value_errors():
    # the CLI reads every bad input as a ValueError or OSError
    for exc in (AntisymmetryViolation, JacobiViolation, BracketMismatch):
        assert issubclass(exc, ValueError)


def test_zero_rep_of_abelian_valid():
    alg = catalog.abelian(2)
    rep = catalog.representations(alg)["zero"]
    assert all(x == 0 for m in rational_actions(rep) for row in m for x in row)


def test_adjoint_abelian_is_zero():
    rep = adjoint_rep(catalog.abelian(3))
    assert all(x == 0 for m in rational_actions(rep) for row in m for x in row)


def test_adjoint_sl2_ad_h_diagonal():
    rep = adjoint_rep(catalog.sl2())
    assert rational_actions(rep)[2] == ((2, 0, 0), (0, -2, 0), (0, 0, 0))


def test_adjoint_center_acts_by_zero():
    rep = adjoint_rep(catalog.heisenberg3())
    assert rational_actions(rep)[2] == ((0,) * 3,) * 3


def test_adjoint_passes_validation_for_all_catalog_algebras():
    for name in catalog.algebra_names():
        adjoint_rep(catalog.load_algebra(name))  # constructor validates


def test_algebra_from_json():
    obj = {
        "dim": 3,
        "labels": ["x", "y", "z"],
        "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "0", "1"]}],
    }
    alg = algebra_from_json(obj)
    assert alg.constants[0][1] == (0, 0, 1)
    assert alg.constants[1][0] == (0, 0, -1)


def test_algebra_from_json_rejects_duplicates():
    obj = {
        "dim": 2,
        "brackets": [
            {"i": 0, "j": 1, "coeffs": ["0", "0"]},
            {"i": 1, "j": 0, "coeffs": ["0", "0"]},
        ],
    }
    with pytest.raises(ValueError):
        algebra_from_json(obj)


def test_catalog_rep_dimensions_within_cap():
    for name in ["abelian2", "heisenberg3", "sl2", "gl2"]:
        alg = catalog.load_algebra(name)
        for rep in catalog.representations(alg).values():
            assert rep.dimV <= 5


def test_load_representation_builds_only_the_named_one(monkeypatch):
    def boom(alg):
        raise AssertionError("built the adjoint, which was not asked for")

    built = []

    def recording(alg, matrices, name=""):
        built.append(name)
        return Representation(alg, matrices, name)

    alg = catalog.sl2()
    monkeypatch.setattr(catalog, "Representation", recording)
    monkeypatch.setattr(catalog, "adjoint_rep", boom)
    rep = catalog.load_representation(alg, "standard")
    assert built == ["standard"]
    assert rep.name == "standard"
    want = Representation(alg, catalog.CATALOG["sl2"][1]["standard"])
    assert (rep.d, rep.actions) == (want.d, want.actions)


def test_load_representation_unknown_name_lists_every_name():
    for name, want in [("sl2", "['adjoint', 'standard', 'sym3']"), ("abelian3", "['adjoint', 'diag', 'zero']")]:
        with pytest.raises(ValueError) as exc:
            catalog.load_representation(catalog.load_algebra(name), "spin")
        assert exc.value.args == (f"algebra {name} has no representation 'spin'; available: {want}",)


def test_zero_dimensional_rep_is_valid():
    rep = Representation(catalog.abelian(2), [[], []])
    assert rep.dimV == 0
    assert adjunction_check(rep) is None


def test_malformed_matrices_are_refused():
    alg = catalog.abelian(2)
    ragged = "ragged rows in matrix literal"
    count = "need one action matrix per basis element"
    square = "action matrices must be square of a common size"
    for mats, message in [
        ([[[1, 2], [3]], [[0, 0], [0, 0]]], ragged),
        ([[[1, 2]], [[0, 0], [0, 0]]], square),  # one row of two
        ([[[1, 2], [3, 4]], [[1, 2, 3], [4, 5, 6]]], square),  # 2x2 and 2x3
        ([[[1]], [[0, 0], [0, 0]]], square),  # 1x1 and 2x2
        ([[[], []], [[], []]], square),  # two rows of no columns
        ([[[1]]], count),
        ([[[1]], [[0]], [[0]]], count),
        ([[[1, 2], [3]], [[1]], [[0]]], ragged),  # ragged is found first
    ]:
        with pytest.raises(ValueError) as exc:
            Representation(alg, mats)
        assert exc.value.args == (message,), mats


def _literal_tables(tmp_path):
    """(algebra, representation name, literal matrices) for each catalog
    table, each catalog algebra's adjoint and the dense gl2's adjoint; an
    adjoint's literal is read off alg.constants, ad(x_g)[o][i] = c[g][i][o]."""
    algebras = [catalog.load_algebra(name) for name in catalog.algebra_names()]
    algebras.append(catalog.load_algebra(str(dense_gl2(tmp_path / "dense_gl2.json"))))
    for alg in algebras:
        _, tables = catalog._entry(alg.name) or (None, {})
        yield from ((alg, name, table) for name, table in tables.items())
        c, n = alg.constants, alg.dim
        yield alg, "adjoint", [[[c[g][i][o] for i in range(n)] for o in range(n)] for g in range(n)]


def test_cleared_table_matches_the_literal_input(tmp_path):
    # the oracle reads rho(x_g) back as R_g / d, so R_g / d must be the
    # literal it was cleared from, and d the lcm of that literal's denominators
    cleared = 0
    for alg, name, literal in _literal_tables(tmp_path):
        rep = catalog.load_representation(alg, name)
        parsed = [[[parse_rational(x) for x in row] for row in m] for m in literal]
        assert rep.d == lcm(*(x.denominator for m in parsed for row in m for x in row))
        assert [[[Fraction(x, rep.d) for x in row] for row in r] for r in rep.actions] == parsed
        cleared += rep.d > 1
    assert cleared == 1  # the dense gl2 adjoint


# -- Fraction references for the integer checks --------------------------------


def jacobi_reference(c):
    """(triple, defect strings) of the first triple i < j < k whose cyclic
    sum is nonzero, summed in Fractions, or None."""
    n = len(c)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                defect = [
                    sum(
                        (c[i][j][m] * c[m][k][l] + c[j][k][m] * c[m][i][l]
                         + c[k][i][m] * c[m][j][l] for m in range(n)),
                        Fraction(0),
                    )
                    for l in range(n)
                ]
                if any(defect):
                    return (i, j, k), [str(x) for x in defect]
    return None


def bracket_reference(c, mats):
    """(pair, expected, got) for the first i < j with [rho_i, rho_j] !=
    sum_k c_ijk rho_k, as Fraction matrices, or None."""
    n = len(c)
    dv = len(mats[0]) if mats else 0
    for i in range(n):
        for j in range(i + 1, n):
            expected = [
                [sum((c[i][j][k] * mats[k][o][p] for k in range(n)), Fraction(0))
                 for p in range(dv)]
                for o in range(dv)
            ]
            got = [
                [sum((mats[i][o][t] * mats[j][t][p] - mats[j][o][t] * mats[i][t][p]
                      for t in range(dv)), Fraction(0))
                 for p in range(dv)]
                for o in range(dv)
            ]
            if expected != got:
                return (i, j), tuple(map(tuple, expected)), tuple(map(tuple, got))
    return None


def _fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def assert_algebra_like_reference(constants) -> bool:
    """LieAlgebra(constants) raises JacobiViolation exactly when the reference
    finds a defect, with its triple, defect strings and message; returns
    whether it raised."""
    c = [_fractions(plane) for plane in constants]
    want = jacobi_reference(c)
    if want is None:
        LieAlgebra(constants)
        return False
    with pytest.raises(JacobiViolation) as exc:
        LieAlgebra(constants)
    triple, defect = want
    assert exc.value.triple == triple
    assert exc.value.defect == defect
    assert str(exc.value) == str(JacobiViolation(triple, defect))
    return True


def assert_rep_like_reference(alg, mats) -> bool:
    """Representation(alg, mats) raises BracketMismatch exactly when the
    reference finds a mismatch, with its pair, Fraction rows and message;
    returns whether it raised."""
    want = bracket_reference(alg.constants, [_fractions(m) for m in mats])
    if want is None:
        Representation(alg, mats)
        return False
    with pytest.raises(BracketMismatch) as exc:
        Representation(alg, mats)
    (i, j), expected, got = want
    assert exc.value.pair == (i, j)
    assert exc.value.expected == expected
    assert exc.value.got == got
    assert str(exc.value) == str(BracketMismatch(i, j, expected, got))
    return True


def _fresh_prime(*ns):
    """The least prime that divides none of ns."""
    p = 2
    while any(n % p == 0 for n in ns) or any(p % q == 0 for q in range(2, p)):
        p += 1
    return p


def _workload_dense_gl2():
    """The four dense gl2 algebras of the lie benchmark workload, seed 0."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [
        algebra_from_json(workloads.dense_gl2(0, index), name=f"dense{index}")
        for index in range(workloads.LIE_DENSE_ALGEBRAS)
    ]


@pytest.fixture(scope="module")
def algebras(tmp_path_factory):
    """The catalog algebras, the benchmark's dense gl2s and the digest's
    dense gl2 (named dense_gl2.json), by name."""
    out = [catalog.load_algebra(name) for name in catalog.algebra_names()]
    out += _workload_dense_gl2()
    out.append(catalog.load_algebra(str(dense_gl2(tmp_path_factory.mktemp("dense") / "dense_gl2.json"))))
    assert all(alg.delta > 1 for alg in out[-5:])
    return {alg.name: alg for alg in out}


def test_valid_algebras_and_reps_agree_with_references(algebras):
    for alg in algebras.values():
        assert not assert_algebra_like_reference(alg.constants), alg
        for name, rep in catalog.representations(alg).items():
            mats = rational_actions(rep)
            assert not assert_rep_like_reference(alg, mats), (alg, name)


@pytest.mark.parametrize("name", ["gl2", "dense_gl2.json"])
def test_perturbed_gl2_constants_match_jacobi_reference(algebras, name):
    alg = algebras[name]
    p = _fresh_prime(alg.delta)
    raised = 0
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(4):
                for shift in (1, -1, Fraction(1, p)):
                    c = [[list(row) for row in plane] for plane in alg.constants]
                    c[i][j][k] += shift
                    c[j][i][k] = -c[i][j][k]  # kept antisymmetric
                    raised += assert_algebra_like_reference(c)
    # some shifts of catalog gl2 leave a Lie algebra; the reference agrees
    assert raised == {"gl2": 66, "dense_gl2.json": 72}[name]


def test_perturbed_rep_entries_match_bracket_reference(algebras):
    raised = 0
    for alg in algebras.values():
        for rep in catalog.representations(alg).values():
            p = _fresh_prime(alg.delta, rep.d)
            dv = rep.dimV
            for shift in (1, -1, Fraction(1, p)):
                mats = [[list(row) for row in m] for m in rational_actions(rep)]
                mats[0][0][dv - 1] += shift
                raised += assert_rep_like_reference(alg, mats)
    assert raised == 39  # of 18 reps times 3 shifts; the rest still represent


# -- gl_n at scale --------------------------------------------------------------


def gl_constants(n):
    """[E_ab, E_cd] = d_bc E_ad - d_da E_cb over the n^2 units E_ab, row-major."""
    idx = {(a, b): a * n + b for a in range(n) for b in range(n)}
    c = [[[0] * n * n for _ in range(n * n)] for _ in range(n * n)]
    for (a, b), i in idx.items():
        for (cc, d), j in idx.items():
            if b == cc:
                c[i][j][idx[(a, d)]] += 1
            if d == a:
                c[i][j][idx[(cc, b)]] -= 1
    return c


def test_gl3_validates_and_a_flipped_constant_breaks_jacobi():
    assert LieAlgebra(gl_constants(2)).constants == catalog.gl2().constants
    c = gl_constants(3)
    alg = LieAlgebra(c)
    rep = adjoint_rep(alg)
    assert adjunction_check(rep) is None
    assert alg.dim == 9 and rep.dimV == 9
    units = [[[int(o == a and p == b) for p in range(3)] for o in range(3)]
             for a in range(3) for b in range(3)]
    assert adjunction_check(Representation(alg, units, name="standard")) is None
    # [E11, E12] = E12; flip it and its antisymmetric partner
    c[0][1][1] = -c[0][1][1]
    c[1][0][1] = -c[1][0][1]
    assert assert_algebra_like_reference(c)
