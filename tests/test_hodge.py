"""Contraction calculus on bi-exterior models.

Random inputs are checked against independent index-level oracles derived
by hand from the documented conventions; the fixed ± signs of single-term
examples are pinned as goldens.
"""

from fractions import Fraction as Q

import pytest

from duflo import hodge
from duflo.cli import _random_11_terms, _random_todd_terms, _todd_terms_from_c1
from duflo.hodge import (
    BidegreeError,
    FormClass,
    HodgeModel,
    LineBundle,
    ModelMismatch,
    NonzeroConstantTerm,
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
    sqrt_todd,
    wedge,
)
from duflo.rng import SplitMix64, derive

from pbw_oracle import contract_exp_atiyah


def _term(kind, model, a_indices, b_indices, coeff=1):
    """One term of kind from 1-based increasing indices."""
    a, b = (sum(1 << (i - 1) for i in indices) for indices in (a_indices, b_indices))
    return kind(model, {(a, b): coeff})


def _random_11(model, rng, cls):
    terms = {}
    for i in range(model.n):
        for j in range(model.n):
            q = rng.rational()
            if q:
                terms[(1 << i, 1 << j)] = q
    return cls(model, terms)


def _random_class(model, rng, cls, keep=3):
    size = 1 << model.n
    terms = {}
    for a in range(size):
        for b in range(size):
            if rng.below(keep) == 0:
                q = rng.rational()
                if q:
                    terms[(a, b)] = q
    return cls(model, terms)


def _poly_basis(model):
    """Every polyvector term (a, b), in the canonical order (a << n) | b."""
    size = 1 << model.n
    return [PolyClass(model, {(a, b): 1}) for a in range(size) for b in range(size)]


def _matrix_of_11(cls11):
    n = cls11.model.n
    out = [[Q(0)] * n for _ in range(n)]
    for (a, b), c in cls11.terms.items():
        out[a.bit_length() - 1][b.bit_length() - 1] = c
    return out


# -- wedge ---------------------------------------------------------------------

def test_wedge_unit():
    m = HodgeModel(3)
    v = FormClass(m, {(0b011, 0b001): Q(2, 3)})
    assert wedge(FormClass.one(m), v) == v
    assert wedge(v, FormClass.one(m)) == v


def test_wedge_antisymmetric_degree_one():
    m = HodgeModel(2)
    a1 = _term(FormClass, m, [1], [])
    a2 = _term(FormClass, m, [2], [])
    assert wedge(a1, a2) == wedge(a2, a1).scale(-1)
    assert wedge(a1, a1).is_zero()


def test_wedge_rank_one_expansion_oracle():
    # (a_s (x) b_t) ^ (a_u (x) b_v) expanded by hand with signs
    m = HodgeModel(3)
    rng = SplitMix64(7)
    for _ in range(40):
        s, t, u, v = (rng.below(3) for _ in range(4))
        lhs = wedge(_term(FormClass, m, [s + 1], [t + 1]), _term(FormClass, m, [u + 1], [v + 1]))
        if s == u or t == v:
            assert lhs.is_zero()
            continue
        sign = -1  # b_t jumps a_u
        if s > u:
            sign = -sign
        if t > v:
            sign = -sign
        amask = (1 << s) | (1 << u)
        bmask = (1 << t) | (1 << v)
        assert lhs == FormClass(m, {(amask, bmask): sign})


def test_wedge_koszul_sign_on_total_degree():
    m = HodgeModel(3)
    rng = SplitMix64(8)
    size = 1 << 3
    homog = []
    for a in range(size):
        for b in range(size):
            homog.append(FormClass(m, {(a, b): 1}))
    for _ in range(80):
        u = homog[rng.below(len(homog))]
        v = homog[rng.below(len(homog))]
        (ua, ub), = u.terms
        (va, vb), = v.terms
        du = ua.bit_count() + ub.bit_count()
        dv = va.bit_count() + vb.bit_count()
        sign = -1 if (du * dv) % 2 else 1
        assert wedge(u, v) == wedge(v, u).scale(sign)


def test_wedge_truncates_beyond_model_rank():
    m = HodgeModel(1)
    a = _term(FormClass, m, [1], [])
    assert wedge(a, a).is_zero()


def test_wedge_model_mismatch():
    with pytest.raises(ModelMismatch):
        wedge(FormClass.one(HodgeModel(2)), FormClass.one(HodgeModel(2)))


# -- contractions ----------------------------------------------------------------

def test_scalar_polyvector_acts_as_identity():
    m = HodgeModel(2)
    v = FormClass(m, {(0b01, 0b11): Q(5, 2), (0, 0b01): -2})
    assert contract_T_on_Omega(PolyClass.one(m), v) == v


def test_interior_golden_sign():
    m = HodgeModel(2)
    got = contract_T_on_Omega(_term(PolyClass, m, [], [1]), _term(FormClass, m, [], [1, 2]))
    assert got == _term(FormClass, m, [], [2])


def test_dual_golden_sign():
    m = HodgeModel(2)
    got = contract_Omega_on_T(_term(FormClass, m, [], [1]), _term(PolyClass, m, [], [1, 2]))
    assert got == _term(PolyClass, m, [], [2]).scale(-1)


def test_overdrawn_contraction_is_zero():
    m = HodgeModel(2)
    alpha = _term(PolyClass, m, [], [1, 2])  # q = 2
    v = _term(FormClass, m, [], [1])  # q' = 1
    assert contract_T_on_Omega(alpha, v).is_zero()


def test_contract_11_on_11_index_oracle():
    # alpha (1,1) on v (1,1): coeff of a_p^a_q (p<q) is
    #   sum_j P[q][j] W[p][j] - P[p][j] W[q][j]
    m = HodgeModel(3)
    rng = SplitMix64(derive(31, 0))
    for _ in range(20):
        alpha = _random_11(m, rng, PolyClass)
        v = _random_11(m, rng, FormClass)
        got = contract_T_on_Omega(alpha, v)
        P = _matrix_of_11(alpha)
        W = _matrix_of_11(v)
        want = {}
        for p in range(3):
            for q in range(p + 1, 3):
                c = sum(P[q][j] * W[p][j] - P[p][j] * W[q][j] for j in range(3))
                if c:
                    want[((1 << p) | (1 << q), 0)] = c
        assert got == FormClass(m, want)


def test_contract_omega_on_t_11_index_oracle():
    # v (1,1) on alpha (1,1): coeff of a_p^a_q (p<q) is
    #   sum_l W[p][l] P[q][l] - W[q][l] P[p][l]
    m = HodgeModel(3)
    rng = SplitMix64(derive(31, 1))
    for _ in range(20):
        v = _random_11(m, rng, FormClass)
        alpha = _random_11(m, rng, PolyClass)
        got = contract_Omega_on_T(v, alpha)
        W = _matrix_of_11(v)
        P = _matrix_of_11(alpha)
        want = {}
        for p in range(3):
            for q in range(p + 1, 3):
                c = sum(W[p][l] * P[q][l] - W[q][l] * P[p][l] for l in range(3))
                if c:
                    want[((1 << p) | (1 << q), 0)] = c
        assert got == PolyClass(m, want)


def test_nested_pairing_module_law():
    m = HodgeModel(3)
    rng = SplitMix64(derive(32, 0))
    for _ in range(25):
        u = _random_class(m, rng, FormClass)
        w = _random_class(m, rng, FormClass)
        alpha = _random_class(m, rng, PolyClass)
        assert contract_Omega_on_T(wedge(u, w), alpha) == contract_Omega_on_T(
            u, contract_Omega_on_T(w, alpha)
        )


def test_module_law_polyvector_side():
    m = HodgeModel(3)
    rng = SplitMix64(derive(32, 1))
    for _ in range(25):
        p1 = _random_class(m, rng, PolyClass)
        p2 = _random_class(m, rng, PolyClass)
        v = _random_class(m, rng, FormClass)
        assert contract_T_on_Omega(wedge(p1, p2), v) == contract_T_on_Omega(
            p1, contract_T_on_Omega(p2, v)
        )


def test_interior_square_zero():
    m = HodgeModel(3)
    rng = SplitMix64(derive(33, 0))
    for j in range(3):
        xi = _term(PolyClass, m, [], [j + 1])
        for _ in range(10):
            v = _random_class(m, rng, FormClass)
            assert contract_T_on_Omega(xi, contract_T_on_Omega(xi, v)).is_zero()
    for j in range(3):
        xi = _term(FormClass, m, [], [j + 1])
        for _ in range(10):
            alpha = _random_class(m, rng, PolyClass)
            assert contract_Omega_on_T(xi, contract_Omega_on_T(xi, alpha)).is_zero()


# -- line-bundle classes ------------------------------------------------------------

def test_line_bundle_keeps_c1_and_validates_it():
    m = HodgeModel(2)
    c1 = _term(FormClass, m, [1], [1])
    assert LineBundle(m, c1).c1 == c1
    assert LineBundle(m, FormClass(m)).exp == FormClass.one(m)
    with pytest.raises(BidegreeError, match="must be pure"):
        LineBundle(m, _term(FormClass, m, [1, 2], [1]))
    with pytest.raises(ModelMismatch, match="different model"):
        LineBundle(HodgeModel(2), c1)


def test_exp_form_zero_and_rank_one():
    m = HodgeModel(2)
    assert exp_form(FormClass(m)) == FormClass.one(m)
    v = _term(FormClass, m, [1], [1])
    assert exp_form(v) == FormClass.one(m) + v


def test_exp_form_two_by_two_golden():
    m = HodgeModel(2)
    v = FormClass(m, {(0b01, 0b01): 1, (0b10, 0b10): 1})
    want = FormClass(m, {(0, 0): 1, (0b01, 0b01): 1, (0b10, 0b10): 1, (0b11, 0b11): -1})
    assert exp_form(v) == want


def test_exp_form_rejects_constant_term():
    m = HodgeModel(2)
    with pytest.raises(NonzeroConstantTerm):
        exp_form(FormClass.one(m))


def test_contract_exp_atiyah_goldens():
    m = HodgeModel(2)
    # q = 0 polyvector only meets the constant term
    alpha = _term(PolyClass, m, [1], [])
    at = _term(FormClass, m, [2], [1])
    assert contract_exp_atiyah(alpha, LineBundle(m, at)) == FormClass(m, {(0b01, 0): 1})
    # the basic (1,1) case
    alpha = _term(PolyClass, m, [1], [1])
    got = contract_exp_atiyah(alpha, LineBundle(m, at))
    assert got == FormClass(m, {(0b11, 0): -1})
    assert {a.bit_count() for a, _ in got.terms} == {2}
    # rank-one at kills the k=2 component
    alpha = _term(PolyClass, m, [], [1, 2])
    assert contract_exp_atiyah(alpha, LineBundle(m, at)).is_zero()


def _collapse(alpha, at):
    full = contract_T_on_Omega(alpha, exp_form(at))
    return FormClass(alpha.model, {(a, b): c for (a, b), c in full.terms.items() if b == 0})


def test_contract_exp_atiyah_equals_collapse():
    m = HodgeModel(3)
    rng = SplitMix64(derive(34, 0))
    for _ in range(15):
        alpha = _random_class(m, rng, PolyClass)
        at = _random_11(m, rng, FormClass)
        assert contract_exp_atiyah(alpha, LineBundle(m, at)) == _collapse(alpha, at)
    # every basis term, so each b-mask row of the exp table is reached
    for n in (1, 2, 3):
        m = HodgeModel(n)
        rng = SplitMix64(derive(34, n))
        ats = [FormClass(m), _term(FormClass, m, [1], [n])]
        ats += [_random_11(m, rng, FormClass) for _ in range(3)]
        for at in ats:
            for alpha in _poly_basis(m):
                assert contract_exp_atiyah(alpha, LineBundle(m, at)) == _collapse(alpha, at)


# -- Duflo twist -----------------------------------------------------------------

def test_duflo_identity_when_todd_trivial():
    m = HodgeModel(3)
    rng = SplitMix64(derive(35, 0))
    for _ in range(10):
        alpha = _random_class(m, rng, PolyClass)
        assert duflo(m, alpha) == alpha


def test_duflo_quarter_move_on_11():
    # todd datum with (1,1) part c1/2: the twist moves alpha by (c1/4) -| alpha
    m0 = HodgeModel(2)
    c1 = FormClass(m0, {(0b01, 0b01): 1, (0b10, 0b10): Q(1, 3)})
    m = HodgeModel(2, dict((FormClass.one(m0) + c1.scale(Q(1, 2))).terms))
    c1m = m.todd.component(1, 1).scale(2)
    for alpha in poly_basis_11(m):
        got = duflo(m, alpha)
        want = alpha + contract_Omega_on_T(c1m.scale(Q(1, 4)), alpha)
        assert got == want


def test_duflo_roundtrip_random_todd():
    rng = SplitMix64(derive(35, 1))
    for n in (2, 3):
        size = 1 << n
        for _ in range(8):
            terms = {(0, 0): Q(1)}
            for a in range(1, size):
                for b in range(1, size):
                    if a.bit_count() == b.bit_count() and rng.below(3) == 0:
                        q = rng.rational()
                        if q:
                            terms[(a, b)] = q
            m = HodgeModel(n, terms)
            alpha = _random_class(m, rng, PolyClass)
            inverse = inv_sqrt_todd(m)
            assert contract_Omega_on_T(inverse, duflo(m, alpha)) == alpha
            assert duflo(m, contract_Omega_on_T(inverse, alpha)) == alpha


def test_duflo_roundtrip_rejects_a_foreign_alpha():
    # the line decides u ^ s = 1; alpha, which only fills the witness, must
    # still be a polyvector on the model
    m = HodgeModel(2, {(0, 0): 1, (1, 1): Q(1, 3)})
    assert hodge.check_duflo_roundtrip(m, PolyClass.one(m)) is None
    with pytest.raises(ModelMismatch):
        hodge.check_duflo_roundtrip(m, PolyClass.one(HodgeModel(2)))


def test_sqrt_todd_squares_back():
    rng = SplitMix64(derive(35, 2))
    for n in (2, 3):
        size = 1 << n
        terms = {(0, 0): Q(1)}
        for a in range(1, size):
            for b in range(1, size):
                if a.bit_count() == b.bit_count():
                    q = rng.rational()
                    if q:
                        terms[(a, b)] = q
        m = HodgeModel(n, terms)
        s = sqrt_todd(m)
        assert wedge(s, s) == m.todd
        assert wedge(s, inv_sqrt_todd(m)) == FormClass.one(m)


# -- Mukai vectors and the implication ----------------------------------------------

def test_mukai_trivial_bundle_on_trivial_todd():
    m = HodgeModel(2)
    assert LineBundle(m, FormClass(m)).mukai == FormClass.one(m)


def test_mukai_rank_one_c1():
    m = HodgeModel(2)
    c1 = _term(FormClass, m, [1], [1])
    assert LineBundle(m, c1).mukai == FormClass.one(m) + c1


def test_mukai_matches_wedge_expansion():
    m = HodgeModel(2)
    rng = SplitMix64(derive(36, 0))
    terms = {(0, 0): Q(1)}
    for a in range(1, 4):
        for b in range(1, 4):
            if a.bit_count() == b.bit_count():
                q = rng.rational()
                if q:
                    terms[(a, b)] = q
    model = HodgeModel(2, terms)
    c1 = _random_11(model, rng, FormClass)
    assert LineBundle(model, c1).mukai == wedge(exp_form(c1), sqrt_todd(model))


def test_mukai_implication_zero_alpha():
    m = HodgeModel(2)
    c1 = _term(FormClass, m, [1], [1])
    obstruction, moduli_action = check_mukai_implication(PolyClass(m), LineBundle(m, c1))
    assert obstruction.is_zero() and moduli_action.is_zero()


def test_mukai_implication_kernel_membership():
    # the (1,1) kernel of contraction against c1, todd = 1, n = 2
    m = HodgeModel(2)
    c1 = _term(FormClass, m, [1], [1])
    ker = exp_atiyah_kernel(LineBundle(m, c1))
    assert ker  # never empty: the map drops dimension
    for alpha in ker:
        obstruction, moduli_action = check_mukai_implication(alpha, LineBundle(m, c1))
        assert obstruction.is_zero(), "kernel element must satisfy the hypothesis"
        assert moduli_action.is_zero()


def test_line_bundle_validates_c1_and_model():
    m = HodgeModel(2)
    with pytest.raises(BidegreeError):
        LineBundle(m, _term(FormClass, m, [1, 2], []))
    line = LineBundle(m, _term(FormClass, m, [1], [1]))
    other = HodgeModel(2)
    with pytest.raises(ModelMismatch):
        check_mukai_implication(PolyClass(other), line)


def test_mukai_implication_vacuous_case():
    m = HodgeModel(2)
    c1 = _term(FormClass, m, [2], [1])
    alpha = _term(PolyClass, m, [1], [1])  # pairs to -a1^a2, so h != 0
    obstruction, moduli_action = check_mukai_implication(alpha, LineBundle(m, c1))
    assert not obstruction.is_zero()  # vacuous: the implication holds


def _todd_from_c1(c1, rng):
    """Todd datum generated by c1: 1 + c1/2 + random multiples of its wedge powers."""
    acc = FormClass.one(c1.model) + c1.scale(Q(1, 2))
    power = c1
    for _ in range(2, c1.model.n + 1):
        power = wedge(power, c1)
        acc = acc + power.scale(rng.rational())
    return dict(acc.terms)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("todd", ["one", "from-c1"])
def test_mukai_operators_match_direct_contractions(n, todd):
    rng = SplitMix64(derive(41, n))
    scratch = HodgeModel(n)
    c1 = _random_11(scratch, rng, FormClass)
    model = HodgeModel(n, None if todd == "one" else _todd_from_c1(c1, rng))
    line = LineBundle(model, FormClass(model, dict(c1.terms)))
    ker = exp_atiyah_kernel(line)
    vacuous = [_random_class(model, rng, PolyClass) for _ in range(4)]
    assert ker and all(not a.is_zero() for a in vacuous)
    for alpha in ker + vacuous:
        obstruction, moduli_action = check_mukai_implication(alpha, line)
        assert obstruction == contract_exp_atiyah(alpha, line)
        assert moduli_action == contract_T_on_Omega(duflo(model, alpha), line.mukai)
        assert obstruction.is_zero() == (alpha in ker)
    foreign = HodgeModel(n)
    with pytest.raises(ModelMismatch):
        check_mukai_implication(PolyClass(foreign, dict(ker[0].terms)), line)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_obstruction_operator_matches_class_route(n):
    # each integer image over den is the b-free part of beta -| exp(c1) on classes
    rng = SplitMix64(derive(43, n))
    model = HodgeModel(n)
    for _ in range(2):
        c1 = _random_11(model, rng, FormClass)
        images, den = LineBundle(model, c1).full("obstruction")
        exp = exp_form(c1)
        for beta, image in zip(_poly_basis(model), images, strict=True):
            full = contract_T_on_Omega(beta, exp).terms
            assert {k: Q(x, den) for k, x in image.items()} == {
                k: c for k, c in full.items() if not k[1]
            }


# -- first-order checks ----------------------------------------------------------

def first_order_identities(model, alpha):
    """The identities (i), (ii) and (iii) of first_order_check, recomputed.

    c1 is twice the (1,1) part of the Todd datum; (iii) compares the two
    canonical kernel bases of hodge._first_order_loci.
    """
    c1 = model.todd.component(1, 1).scale(2)
    d_alpha = hodge.duflo(model, alpha)
    quarter = d_alpha == alpha + hodge.contract_Omega_on_T(c1.scale(Q(1, 4)), alpha)
    lhs = hodge.contract_T_on_Omega(d_alpha, hodge.sqrt_todd(model)).component(2, 0)
    h2 = lhs == hodge.contract_T_on_Omega(alpha, c1.scale(Q(1, 2))).component(2, 0)
    k1, k2 = hodge._first_order_loci(model, c1)
    return quarter, h2, k1 == k2


def _first_order_holds(model, alpha):
    """All three identities hold, and first_order_check passes with no witness."""
    return first_order_identities(model, alpha) == (True, True, True) and (
        first_order_check(model, alpha) is None
    )


def test_first_order_zero_c1_degenerates():
    m = HodgeModel(2)  # todd = 1, designated c1 = 0
    for alpha in poly_basis_11(m):
        assert _first_order_holds(m, alpha)


def test_first_order_basis_sweep_n2():
    m0 = HodgeModel(2)
    c1 = FormClass(m0, {(0b01, 0b01): 1, (0b10, 0b10): 1})
    m = HodgeModel(2, dict((FormClass.one(m0) + c1.scale(Q(1, 2))).terms))
    for alpha in poly_basis_11(m):
        assert _first_order_holds(m, alpha)


def test_first_order_loci_random_seeds_n3():
    rng = SplitMix64(derive(37, 0))
    for _ in range(10):
        m0 = HodgeModel(3)
        c1 = _random_11(m0, rng, FormClass)
        acc = FormClass.one(m0) + c1.scale(Q(1, 2))
        power = c1
        for k in range(2, 4):
            power = wedge(power, c1)
            acc = acc + power.scale(rng.rational())
        m = HodgeModel(3, dict(acc.terms))
        alpha = _random_11(m, rng, PolyClass)
        assert _first_order_holds(m, alpha)


def test_first_order_requires_11():
    m = HodgeModel(2)
    with pytest.raises(BidegreeError):
        first_order_check(m, _term(PolyClass, m, [1, 2], []))


def _first_order_models(n, rng):
    """Every basis model of the CLI sweep, c1-generated models, and models on
    independent Todd data, on which (iii) may fail from rank 3 on."""
    for key in hodge.term_keys_11(n):
        yield HodgeModel(n, {(0, 0): 1, key: Q(1, 2)})
    for _ in range(3):
        scratch = HodgeModel(n)
        c1 = FormClass(scratch, _random_11_terms(n, rng))
        yield HodgeModel(n, _todd_terms_from_c1(scratch, c1, rng))
        yield HodgeModel(n, _random_todd_terms(n, rng))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_first_order_images_match_class_route(n):
    # alpha combines the per-model basis images into the class route's values,
    # so the check's verdict is the identities' on dense alpha
    rng = SplitMix64(derive(39, n))
    verdicts = set()
    for m in _first_order_models(n, rng):
        c1 = m.todd.component(1, 1).scale(2)
        ops = hodge._basis_images(m, c1)
        poly, form = PolyClass(m), FormClass(m)
        for _ in range(2):
            alpha = PolyClass(m, _random_11_terms(n, rng))
            shift = alpha + contract_Omega_on_T(c1.scale(Q(1, 4)), alpha)
            assert poly._like(*hodge._act(ops["shift"], alpha)) == shift
            lhs = contract_T_on_Omega(duflo(m, alpha), sqrt_todd(m)).component(2, 0)
            assert form._like(*hodge._act(ops["lhs"], alpha)) == lhs
            rhs = contract_T_on_Omega(alpha, c1.scale(Q(1, 2))).component(2, 0)
            assert form._like(*hodge._act(ops["rhs"], alpha)) == rhs
            holds = first_order_identities(m, alpha) == (True, True, True)
            assert (first_order_check(m, alpha) is None) == holds
            verdicts.add(holds)
    # below rank 3 the two loci agree on any datum, so (iii) holds there too
    assert verdicts == ({True} if n < 3 else {True, False})


# -- serialization ------------------------------------------------------------------

def test_json_roundtrip():
    m = HodgeModel(3)
    rng = SplitMix64(derive(38, 0))
    alpha = _random_class(m, rng, PolyClass)
    v = _random_class(m, rng, FormClass)
    assert PolyClass.from_obj(m, alpha.to_obj()) == alpha
    assert FormClass.from_obj(m, v.to_obj()) == v


def _group(pq, *terms):
    return {"bidegree": list(pq), "terms": [dict(zip("ab", t), coeff="1") for t in terms]}


@pytest.mark.parametrize(
    "obj",
    [
        [_group((1, 0), ([1.7], []))],
        [_group((1, 0), ([True], []))],
        [_group((1, 0), (["2"], []))],
        [_group((1, 0), ([1], [2]))],  # a (1,1) term in a (1,0) group
        [_group((1, 0), ([1], [])), _group((0, 1), ([2], []))],
    ],
)
def test_from_obj_rejects_bad_index_or_bidegree(obj):
    m = HodgeModel(2)
    for kind in (FormClass, PolyClass):
        with pytest.raises(BidegreeError):
            kind.from_obj(m, obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"bidegree": [0, 0], "terms": []},
        [[0, 0]],
        [{"terms": []}],
        [{"bidegree": [1, 0]}],
        [{"bidegree": [True, 0], "terms": [{"a": [1], "b": [], "coeff": "1"}]}],
        [{"bidegree": [1], "terms": []}],
        [{"bidegree": [1, 0], "terms": {}}],
        [{"bidegree": [1, 0], "terms": [{"a": [1], "coeff": "1"}]}],
        [{"bidegree": [1, 0], "terms": [{"a": 1, "b": [], "coeff": "1"}]}],
        [{"bidegree": [1, 0], "terms": [{"a": [1], "b": "", "coeff": "1"}]}],
        [{"bidegree": [1, 0], "terms": [{"a": [1], "b": []}]}],
        [{"bidegree": [1, 0], "terms": [{"a": [1], "b": [], "coeff": 0.5}]}],
        [{"bidegree": [1, 0], "terms": [{"a": [1], "b": [], "coeff": "1/0"}]}],
        [{"bidegree": [1, 0], "terms": [{"a": [1], "b": [], "coeff": "1e999999999"}]}],
        [{"bidegree": [1, 0], "terms": [{"a": [1], "b": [], "coeff": "0.5"}]}],
    ],
)
def test_from_obj_malformed_structure_is_value_error(obj):
    with pytest.raises(ValueError):
        FormClass.from_obj(HodgeModel(2), obj)


def test_indices_must_increase():
    m = HodgeModel(3)
    with pytest.raises(BidegreeError):
        FormClass.from_obj(m, [{"bidegree": [2, 0], "terms": [{"a": [2, 1], "b": [], "coeff": "1"}]}])
