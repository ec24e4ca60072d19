"""Symmetrization, the two word-to-operator maps, and invariants."""

import itertools
from fractions import Fraction as Q
from math import comb

from duflo import catalog
from duflo.linalg import Matrix
from duflo.pbw import (
    SymElement,
    TensorElement,
    adjunction_check,
    check_pbw_diagram,
    derivation_apply,
    invariants_s,
    phi,
    sym_basis,
    symmetrize,
    theta,
)

from test_stream_digests import dense_gl2


def _commutator(a, b):
    """[a, b] = ab - ba."""
    return a @ b - b @ a


def _sl2_standard():
    alg = catalog.sl2()
    return alg, catalog.representations(alg)["standard"]


# -- symmetrize -------------------------------------------------------------

def test_symmetrize_single_letter():
    assert symmetrize((0,)) == TensorElement({(0,): 1})


def test_symmetrize_two_letters():
    assert symmetrize((0, 1)) == TensorElement({(0, 1): Q(1, 2), (1, 0): Q(1, 2)})


def test_symmetrize_repeated_letter():
    # x*x*y: six permutation terms merge into thirds
    got = symmetrize((0, 0, 1))
    want = TensorElement(
        {(0, 0, 1): Q(1, 3), (0, 1, 0): Q(1, 3), (1, 0, 0): Q(1, 3)}
    )
    assert got == want
    # oracle: direct enumeration
    acc = {}
    for p in itertools.permutations((0, 0, 1)):
        acc[p] = acc.get(p, Q(0)) + Q(1, 6)
    assert got == TensorElement(acc)


def test_symmetrize_output_is_permutation_symmetric():
    for mono in [(0, 1, 2), (0, 0, 1), (1, 1, 1), (0, 1, 1, 2)]:
        t = symmetrize(mono)
        for pos in range(len(mono) - 1):
            assert t.swap_letters(pos) == t


def test_symmetrize_degree_zero():
    assert symmetrize(()) == TensorElement({(): 1})


def test_tensor_element_invariants():
    # zero coefficients are never stored
    t = TensorElement({(0, 1): Q(1, 2), (1, 0): 0})
    assert (1, 0) not in t.terms
    assert (t - t).is_zero()


def test_sym_element_canonical_and_product():
    s = SymElement({(2, 0, 1): 1})
    assert list(s.terms) == [(0, 1, 2)]
    prod = SymElement.monomial((1,)) * SymElement.monomial((0,))
    assert prod == SymElement.monomial((0, 1))


# -- theta ------------------------------------------------------------------

def test_theta_empty_word_is_identity():
    _, rep = _sl2_standard()
    assert theta(rep, TensorElement.word(())) == Matrix.identity(2)


def test_theta_word_ef():
    _, rep = _sl2_standard()
    assert theta(rep, TensorElement.word((0, 1))) == Matrix([[1, 0], [0, 0]])


def test_theta_realizes_bracket_through_v():
    # theta(word ij - word ji) = theta(word of [x_i, x_j]) for all pairs
    for name in ["abelian2", "heisenberg3", "sl2", "gl2"]:
        alg = catalog.load_algebra(name)
        for rep in catalog.representations(alg).values():
            for i in range(alg.dim):
                for j in range(alg.dim):
                    comm = TensorElement.word((i, j)) - TensorElement.word((j, i))
                    bracket = TensorElement(
                        {(k,): c for k, c in enumerate(alg.constants[i][j])}
                    )
                    assert theta(rep, comm) == theta(rep, bracket)


# -- phi ----------------------------------------------------------------------

def test_phi_single_letter_is_action():
    _, rep = _sl2_standard()
    for i in range(3):
        assert phi(rep, TensorElement.word((i,))) == rep.matrices[i]


def test_phi_equals_theta_on_all_short_words():
    for name in ["abelian2", "heisenberg3", "sl2", "gl2"]:
        alg = catalog.load_algebra(name)
        for rep in catalog.representations(alg).values():
            for k in range(4):
                for w in itertools.product(range(alg.dim), repeat=k):
                    t = TensorElement.word(w)
                    assert phi(rep, t) == theta(rep, t), (name, rep.name, w)


# -- phi of a symmetrized element ---------------------------------------------

def test_s_to_hom_constant_and_letter():
    _, rep = _sl2_standard()
    assert phi(rep, symmetrize(SymElement({(): 1}))) == Matrix.identity(2)
    assert phi(rep, symmetrize(SymElement.monomial((2,)))) == rep.matrices[2]


def test_s_to_hom_casimir_is_scalar():
    alg, rep = _sl2_standard()
    (cas,) = invariants_s(alg, 2)
    img = phi(rep, symmetrize(cas))
    # Schur: scalar on an irreducible; the value comes from the matrix itself
    lam = img[0, 0]
    assert img == Matrix.identity(2).scale(lam)
    assert lam != 0


# -- invariants ----------------------------------------------------------------

def test_invariants_abelian_full_basis():
    alg = catalog.abelian(2)
    for d in range(4):
        assert len(invariants_s(alg, d)) == len(sym_basis(2, d))


def test_invariants_sl2_degree_1_empty():
    assert invariants_s(catalog.sl2(), 1) == []


def test_invariants_sl2_degree_2_is_line():
    alg = catalog.sl2()
    inv = invariants_s(alg, 2)
    assert len(inv) == 1
    for i in range(3):
        assert derivation_apply(alg, i, inv[0]).is_zero()


def test_invariant_images_commute_with_action():
    for name in ["heisenberg3", "sl2", "gl2"]:
        alg = catalog.load_algebra(name)
        reps = catalog.representations(alg)
        for d in range(1, 4):
            for s in invariants_s(alg, d):
                for rep in reps.values():
                    img = phi(rep, symmetrize(s))
                    for m in rep.matrices:
                        assert _commutator(img, m).is_zero()


# -- diagram and adjunction -----------------------------------------------------

def test_diagram_commutes_for_commuting_actions():
    alg = catalog.abelian(2)
    rep = catalog.representations(alg)["diag"]
    for d in range(1, 5):
        for m in sym_basis(2, d):
            assert check_pbw_diagram(rep, SymElement.monomial(m)).equal


def test_diagram_casimir_central():
    alg, rep = _sl2_standard()
    (cas,) = invariants_s(alg, 2)
    rpt = check_pbw_diagram(rep, cas, check_central=True)
    assert rpt.equal and rpt.central


def test_diagram_reports_difference_shape():
    # a non-example cannot be produced by valid inputs, but the report
    # structure for equal paths should carry both path matrices
    _, rep = _sl2_standard()
    rpt = check_pbw_diagram(rep, SymElement.monomial((0, 1)))
    assert rpt.equal
    assert rpt.path_theta == rpt.path_contract


def test_adjunction_zero_rep():
    alg = catalog.sl2()
    zero = [[0, 0], [0, 0]]
    from duflo.lie import Representation

    rep = Representation(alg, [zero, zero, zero])
    assert adjunction_check(rep).equal


def test_adjunction_standard_and_heisenberg():
    _, rep = _sl2_standard()
    assert adjunction_check(rep).equal
    h3 = catalog.heisenberg3()
    for rep in catalog.representations(h3).values():
        assert adjunction_check(rep).equal


# -- the multiset recursion against the permutation sum ----------------------------

def test_sym_images_match_permutation_oracle():
    top = 4
    for name in catalog.algebra_names():
        alg = catalog.load_algebra(name)
        invariants = [s for d in range(top + 1) for s in invariants_s(alg, d)]
        mixed = SymElement({(): -5, (0,): "1/2", (0, 0, 1): "2/3", (1, 1, 1, 0): 3})
        for rep in catalog.representations(alg).values():
            monomials = [
                SymElement.monomial(m) for d in range(top + 1) for m in sym_basis(alg.dim, d)
            ]
            for s in monomials + invariants + [mixed]:
                sym = symmetrize(s)
                rpt = check_pbw_diagram(rep, s)
                assert rpt.path_theta == theta(rep, sym), (name, rep.name, s)
                assert rpt.path_contract == phi(rep, sym), (name, rep.name, s)
            # one entry per monomial of degree <= top, kept on rep and shared
            # by every check of the sweep
            images = rep._sym_images
            assert len(images.theta_table) == comb(alg.dim + top, top)
            assert len(images.phi_table) == comb(alg.dim + top, top)


def test_sym_images_clear_denominators_on_dense_gl2(tmp_path, monkeypatch):
    # gl2 in a dense rational basis: its adjoint action has denominators,
    # so both routes' sources are cleared by a common d > 1
    alg = catalog.load_algebra(str(dense_gl2(tmp_path / "dense_gl2.json")))
    rep = catalog.representations(alg)["adjoint"]
    top = 3
    monomials = [SymElement.monomial(m) for d in range(top + 1) for m in sym_basis(alg.dim, d)]
    invariants = [s for d in range(top + 1) for s in invariants_s(alg, d)]
    mixed = SymElement({(): -5, (0,): "1/2", (1, 3): "-7/3", (0, 2, 2): 3})
    central = []
    for s in monomials + invariants + [mixed]:
        sym = symmetrize(s)
        rpt = check_pbw_diagram(rep, s, check_central=True)
        image = phi(rep, sym)
        assert rpt.equal
        assert rpt.path_theta == theta(rep, sym), s
        assert rpt.path_contract == image, s
        # centrality decided in Z agrees with the Fraction commutators
        central.append(all(_commutator(image, m).is_zero() for m in rep.matrices))
        assert rpt.central == central[-1], s
    assert not all(central[: len(monomials)])
    assert all(central[len(monomials): -1])
    images = rep._sym_images
    assert images.d > 1
    for table in (images.theta_table, images.phi_table):
        assert len(table) == comb(alg.dim + top, top)
        assert all(type(x) is int for entry in table.values() for row in entry for x in row)

    # once the representation has tables, a one-term check does no Fraction
    # arithmetic, even where it fills new table entries
    quartics = [SymElement.monomial(m) for m in sym_basis(alg.dim, top + 1)]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in a one-term diagram check")

    with monkeypatch.context() as patch:
        for op in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                   "__truediv__", "__eq__", "__new__"):
            patch.setattr(Q, op, refuse)
        assert all(check_pbw_diagram(rep, s, check_central=True).equal for s in quartics)
    assert check_pbw_diagram(rep, quartics[0]).path_theta == theta(rep, symmetrize(quartics[0]))


# -- derivations over the cleared bracket table -----------------------------------

def _derivation_oracle(alg, i, s):
    """ad(x_i) on s by the Leibniz rule over every letter position, in Fractions."""
    out = {}
    for m, coeff in s.terms.items():
        for pos, letter in enumerate(m):
            rest = m[:pos] + m[pos + 1:]
            for k, c in enumerate(alg.constants[i][letter]):
                if c:
                    mono = tuple(sorted(rest + (k,)))
                    out[mono] = out.get(mono, Q(0)) + coeff * c
    return SymElement(out)


def test_derivations_clear_denominators_on_dense_gl2(tmp_path):
    alg = catalog.load_algebra(str(dense_gl2(tmp_path / "dense_gl2.json")))
    assert alg.delta == 594
    entries = [x for plane in alg.cleared_brackets for row in plane for term in row for x in term]
    assert entries and all(type(x) is int for x in entries)
    for i, plane in enumerate(alg.cleared_brackets):
        for j, row in enumerate(plane):
            assert dict(row) == {
                k: c * alg.delta for k, c in enumerate(alg.constants[i][j]) if c
            }
    invariants = [s for d in range(4) for s in invariants_s(alg, d)]
    elements = [SymElement.monomial(m) for d in range(4) for m in sym_basis(alg.dim, d)]
    elements += invariants + [
        SymElement(),
        SymElement({(): Q(-5, 7)}),
        SymElement({(): -5, (0,): "1/2", (1, 3): "-7/3", (0, 2, 2): 3, (1, 1, 2, 3): "5/11"}),
    ]
    zero = 0
    for s in elements:
        for i in range(alg.dim):
            got = derivation_apply(alg, i, s)
            assert got == _derivation_oracle(alg, i, s), (i, s)
            zero += got.is_zero()
    # the constants, the empty element and every invariant, under every derivation
    assert zero >= alg.dim * (len(invariants) + 3)


def test_invariants_and_annihilation_do_no_fraction_arithmetic(tmp_path, monkeypatch):
    # invariants_s builds integer images and integer kernel vectors, and
    # derivation_apply works on the integer numerators: no Fraction is built
    alg = catalog.load_algebra(str(dense_gl2(tmp_path / "dense_gl2.json")))
    want = [[s.terms for s in invariants_s(alg, d)] for d in range(1, 4)]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in invariants_s or derivation_apply")

    with monkeypatch.context() as patch:
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                   "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__neg__",
                   "__pow__", "__abs__", "__new__"):
            patch.setattr(Q, op, refuse)
        found = [invariants_s(alg, d) for d in range(1, 4)]
        killed = [
            all(derivation_apply(alg, i, s).is_zero() for i in range(alg.dim))
            for per_degree in found for s in per_degree
        ]
    assert [[s.terms for s in per_degree] for per_degree in found] == want
    assert [len(per_degree) for per_degree in found] == [1, 2, 2]
    assert all(killed)
    # the canonical kernel basis: 1 at each vector's last monomial, over
    # denominators up to 6,264,000
    assert all(s.terms[max(s.terms)] == 1 for per_degree in found for s in per_degree)
    assert max(s.den for per_degree in found for s in per_degree) > 1
