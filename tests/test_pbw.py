"""Symmetrization, the two word-to-operator maps, and invariants."""

import itertools
from fractions import Fraction as Q
from math import comb, lcm

from duflo import catalog, pbw
from duflo.kernels import kernel_of_images
from duflo.lie import LieAlgebra
from duflo.pbw import (
    SymElement,
    adjunction_check,
    check_invariant_image,
    check_pbw_diagram,
    derivation_apply,
    invariants_s,
    sym_basis,
    sym_images,
)

from pbw_oracle import (
    LambdaMap,
    TensorElement,
    mat_mul,
    phi,
    rational_actions,
    symmetrize,
    theta,
)
from test_invariant_counts import _benchmark_dense_gl2
from test_lie import gl_constants
from test_stream_digests import dense_gl2


def _commute(a, b):
    """Whether ab = ba."""
    return mat_mul(a, b) == mat_mul(b, a)


def _sl2_standard():
    alg = catalog.sl2()
    return alg, catalog.representations(alg)["standard"]


# -- symmetrize -------------------------------------------------------------

def swap_letters(t: TensorElement, pos: int) -> TensorElement:
    """t with letters pos and pos+1 transposed in every word (symmetry probe)."""
    out = {}
    for w, c in t.terms.items():
        if len(w) > pos + 1:
            w = w[:pos] + (w[pos + 1], w[pos]) + w[pos + 2:]
        out[w] = out.get(w, 0) + c
    return TensorElement(out)


def test_symmetrize_single_letter():
    assert symmetrize(SymElement.monomial((0,))) == TensorElement({(0,): 1})


def test_symmetrize_two_letters():
    got = symmetrize(SymElement.monomial((0, 1)))
    assert got == TensorElement({(0, 1): Q(1, 2), (1, 0): Q(1, 2)})


def test_symmetrize_repeated_letter():
    # x*x*y: six permutation terms merge into thirds
    got = symmetrize(SymElement.monomial((0, 0, 1)))
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
        t = symmetrize(SymElement.monomial(mono))
        for pos in range(len(mono) - 1):
            assert swap_letters(t, pos) == t


def test_symmetrize_degree_zero():
    assert symmetrize(SymElement.monomial(())) == TensorElement({(): 1})


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
    assert theta(rep, TensorElement({(): 1})) == ((1, 0), (0, 1))


def test_theta_word_ef():
    _, rep = _sl2_standard()
    assert theta(rep, TensorElement({(0, 1): 1})) == ((1, 0), (0, 0))


def test_theta_realizes_bracket_through_v():
    # theta(word ij - word ji) = theta(word of [x_i, x_j]) for all pairs
    for name in ["abelian2", "heisenberg3", "sl2", "gl2"]:
        alg = catalog.load_algebra(name)
        for rep in catalog.representations(alg).values():
            for i in range(alg.dim):
                for j in range(alg.dim):
                    comm = TensorElement({(i, j): 1}) - TensorElement({(j, i): 1})
                    bracket = TensorElement(
                        {(k,): c for k, c in enumerate(alg.constants[i][j])}
                    )
                    assert theta(rep, comm) == theta(rep, bracket)


# -- phi ----------------------------------------------------------------------

def test_phi_single_letter_is_action():
    _, rep = _sl2_standard()
    for i in range(3):
        assert phi(rep, TensorElement({(i,): 1})) == rational_actions(rep)[i]


def test_phi_equals_theta_on_all_short_words():
    for name in ["abelian2", "heisenberg3", "sl2", "gl2"]:
        alg = catalog.load_algebra(name)
        for rep in catalog.representations(alg).values():
            for k in range(4):
                for w in itertools.product(range(alg.dim), repeat=k):
                    t = TensorElement({w: 1})
                    assert phi(rep, t) == theta(rep, t), (name, rep.name, w)


# -- phi of a symmetrized element ---------------------------------------------

def test_s_to_hom_constant_and_letter():
    _, rep = _sl2_standard()
    assert phi(rep, symmetrize(SymElement({(): 1}))) == ((1, 0), (0, 1))
    assert phi(rep, symmetrize(SymElement.monomial((2,)))) == rational_actions(rep)[2]


def test_s_to_hom_casimir_is_scalar():
    alg, rep = _sl2_standard()
    (cas,) = invariants_s(alg, 2)
    img = phi(rep, symmetrize(cas))
    # Schur: scalar on an irreducible; the value comes from the matrix itself
    lam = img[0][0]
    assert img == ((lam, 0), (0, lam))
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
                    for m in rational_actions(rep):
                        assert _commute(img, m)


# -- diagram and adjunction -----------------------------------------------------

def test_diagram_commutes_for_commuting_actions():
    alg = catalog.abelian(2)
    rep = catalog.representations(alg)["diag"]
    for d in range(1, 5):
        for m in sym_basis(2, d):
            assert check_pbw_diagram(rep, m) is None


def test_diagram_casimir_central():
    alg, rep = _sl2_standard()
    (cas,) = invariants_s(alg, 2)
    assert check_invariant_image(rep, cas) is None


def test_diagram_reports_difference_shape():
    # valid inputs give no failing diagram, but both routes' matrices, which
    # a failure's witness would carry, agree with each other
    _, rep = _sl2_standard()
    assert check_pbw_diagram(rep, (0, 1)) is None
    s = SymElement.monomial((0, 1))
    assert sym_images(rep).theta(s) == sym_images(rep).phi(s)


def test_adjunction_zero_rep():
    alg = catalog.sl2()
    zero = [[0, 0], [0, 0]]
    from duflo.lie import Representation

    rep = Representation(alg, [zero, zero, zero])
    assert adjunction_check(rep) is None


def test_adjunction_standard_and_heisenberg():
    _, rep = _sl2_standard()
    assert adjunction_check(rep) is None
    h3 = catalog.heisenberg3()
    for rep in catalog.representations(h3).values():
        assert adjunction_check(rep) is None


def test_representation_clears_matrices_and_coaction_by_one_lcm(tmp_path):
    # the coaction's entries are the matrices' own, so the lcm over both,
    # which the diagram routes once took, is the d the representation keeps;
    # test_lie checks the matrices against the literal input
    algebras = [catalog.load_algebra(name) for name in catalog.algebra_names()]
    algebras.append(catalog.load_algebra(str(dense_gl2(tmp_path / "dense_gl2.json"))))
    for alg in algebras:
        for rep in catalog.representations(alg).values():
            data = LambdaMap(rep).data
            d = lcm(
                *(x.denominator for m in rational_actions(rep) for row in m for x in row),
                *(x.denominator for plane in data for cell in plane for x in cell),
            )
            assert rep.d == d, (alg.name, rep.name)
            assert rep.actions == tuple(
                tuple(tuple(cell[g] * d for cell in plane) for plane in data)
                for g in range(alg.dim)
            )
            assert all(type(x) is int for r in rep.actions for row in r for x in row)
    assert rep.d > 1  # the dense gl2 adjoint


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
            images = sym_images(rep)
            for s in monomials + invariants + [mixed]:
                sym = symmetrize(s)
                assert images.theta(s) == theta(rep, sym), (name, rep.name, s)
                assert images.phi(s) == phi(rep, sym), (name, rep.name, s)
            assert all(
                check_pbw_diagram(rep, m) is None
                for d in range(top + 1)
                for m in sym_basis(alg.dim, d)
            )
            assert all(check_invariant_image(rep, s) is None for s in invariants)
            # one entry per monomial of degree <= top, kept on rep and shared
            # by every check of the sweep
            images = rep._sym_images
            assert len(images.theta_table) == comb(alg.dim + top, top)
            assert len(images.phi_table) == comb(alg.dim + top, top)


def test_oracle_shares_no_arithmetic_with_the_tables(tmp_path, monkeypatch):
    # theta and phi are a reference for SymImages only while they run none of
    # its integer products: with matmul_int gone they still agree with the
    # filled tables, on sl2's standard and on the dense gl2 adjoint
    gl2 = catalog.load_algebra(str(dense_gl2(tmp_path / "dense_gl2.json")))
    cases = [(catalog.sl2(), "standard"), (gl2, "adjoint")]
    filled = []
    for alg, name in cases:
        rep = catalog.load_representation(alg, name)
        images = sym_images(rep)
        monomials = [SymElement.monomial(m) for d in range(4) for m in sym_basis(alg.dim, d)]
        for s in monomials:
            images.theta(s), images.phi(s)
        filled.append((rep, images, monomials))

    def boom(*args):
        raise AssertionError("the d! oracle ran the theta table's integer product")

    monkeypatch.setattr(pbw, "matmul_int", boom)
    for rep, images, monomials in filled:
        for s in monomials:
            sym = symmetrize(s)
            assert theta(rep, sym) == images.theta(s) == phi(rep, sym), (rep.name, s)


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
    images = sym_images(rep)
    for s in monomials + invariants + [mixed]:
        sym = symmetrize(s)
        image = phi(rep, sym)
        assert images.theta(s) == theta(rep, sym), s
        assert images.phi(s) == image, s
        # centrality decided in Z agrees with the Fraction commutators
        central.append(all(_commute(image, m) for m in rational_actions(rep)))
        witness = {"element": s.describe(alg), "diagram_equal": True, "central": False}
        assert check_invariant_image(rep, s) == (None if central[-1] else witness), s
    assert not all(central[: len(monomials)])
    assert all(central[len(monomials): -1])
    assert rep.d > 1
    images = rep._sym_images
    for table in (images.theta_table, images.phi_table):
        assert len(table) == comb(alg.dim + top, top)
        assert all(type(x) is int for entry in table.values() for row in entry for x in row)

    # once the representation has tables, a passing check does no Fraction
    # arithmetic, even where it fills new table entries
    quartics = sym_basis(alg.dim, top + 1)
    invariants = invariants_s(alg, top + 1)

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in a passing diagram check")

    with monkeypatch.context() as patch:
        for op in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                   "__truediv__", "__eq__", "__new__"):
            patch.setattr(Q, op, refuse)
        assert all(check_pbw_diagram(rep, m) is None for m in quartics)
        assert all(check_invariant_image(rep, s) is None for s in invariants)
    assert len(images.theta_table) == comb(alg.dim + top + 1, top + 1)
    quartic = SymElement.monomial(quartics[0])
    assert images.theta(quartic) == theta(rep, symmetrize(quartic))


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


def _one_shot_invariants(alg, degree):
    """The kernel of every derivation's images at once, as (num items, den) over monomials."""
    basis = sym_basis(alg.dim, degree)
    images = [
        {(i, mono): c for i, brackets in enumerate(alg.cleared_brackets)
         for mono, c in pbw._derive(brackets, {m: 1}).items()}
        for m in basis
    ]
    return [([(basis[c], x) for c, x in num.items()], den) for num, den in kernel_of_images(images)]


def test_invariants_match_the_one_shot_kernel(tmp_path):
    # one derivation's kernel at a time, then kernel_basis, gives the
    # basis, term order included, of eliminating every image at once
    dense = _benchmark_dense_gl2()
    dense.append(catalog.load_algebra(str(dense_gl2(tmp_path / "dense_gl2.json"))))
    cases = [(catalog.load_algebra(name), 5) for name in catalog.algebra_names()]
    cases += [(LieAlgebra(gl_constants(3)), 5)] + [(alg, 4) for alg in dense]
    assert len(cases) == 11
    for alg, top in cases:
        for d in range(1, top + 1):
            got = [(list(s.num.items()), s.den) for s in invariants_s(alg, d)]
            assert got == _one_shot_invariants(alg, d), (alg.labels, d)


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
