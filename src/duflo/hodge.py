"""Bi-exterior model of polyvector fields acting on differential forms.

The model is built on two rank-n spaces: generators a_1..a_n span the
"cohomological" directions and b_1..b_n the holomorphic form directions.
Forms live in /\\A (x) /\\B, polyvector fields in /\\A (x) /\\B*, and the
endomorphism side (line-bundle case) is /\\A.  All generators are odd, so
a term is stored as a pair of bitmasks (amask, bmask) meaning the wedge
word  a_{i1} ^ ... ^ a_{ip} ^ b_{j1} ^ ... ^ b_{jq}  with ascending
indices, and every sign is the permutation sign relative to that order.

Sign conventions (fixed here, pinned by golden tests):

  * wedge is the graded-commutative product on the total degree p + q;
  * a product of generators acts on a class by applying the generators
    right to left, each a_i by left wedge and each dual pair by the left
    interior product (an antiderivation), so the module law
    (u ^ w) -| x = u -| (w -| x) holds on the nose for both contractions;
  * the pairing of a b-generator against a b*-generator (forms acting on
    polyvectors) carries one extra minus sign per pair, the graded swap of
    the defining pairing <b*, b> = 1.  This is what makes the two mixed
    contractions agree on their common (1,1) x (1,1) -> (2,0) overlap.

Every such sign is a parity read from one table per rank n: entry
(first << n) | second is the parity of the inversions of merging the
ascending blocks first and second, built on first use.  A wedge's sign is
par[a1, a2] ^ par[b1, b2] ^ |b1||a2|; a word [a(a_act), dual(b_act)] on a
target term has sign par[a_act, a_tgt] ^ par[b_act, b_tgt] ^ k(|a_tgt| + e)
with k = |b_act| and e = 1 for the extra minus per pair, all mod 2.

A class is a sparse.LinComb, integer numerators over one denominator, so
every product and contraction runs in Z: it combines the numerator maps
and multiplies the two denominators.  The Duflo round trip and the
first-order identities compare classes.  Both Mukai operators, the
obstruction and the moduli action, are integer images of the basis terms
over one denominator, read from the numerators of exp(c1), the Todd root
and the Mukai vector through the one contraction loop _contract_terms,
which the class contractions also run.  A Fraction is built only for a
reported coefficient or a witness.  Everything is exact; no floats
anywhere.
"""

from fractions import Fraction
from functools import cache

from .linalg import Q, kernel_of_images, parse_rational
from .sparse import LinComb, graded_exp, unit_inverse, unit_sqrt


class ModelMismatch(Exception):
    pass


class BidegreeError(Exception):
    pass


class NonzeroConstantTerm(Exception):
    pass


def _bits(mask: int) -> list[int]:
    out = []
    i = 0
    while mask >> i:
        if (mask >> i) & 1:
            out.append(i)
        i += 1
    return out


@cache
def _parity(n: int) -> bytes:
    """Inversion parities of merging ascending blocks, indexed (first << n) | second.

    An inversion is a pair i in first, j in second with j < i; splitting
    off first's lowest index l adds the indices of second below l.  The
    table is immutable and depends on n alone, so every model of rank n
    shares it.
    """
    size = 1 << n
    par = bytearray(size * size)
    for first in range(1, size):
        low = first & -first
        rest, row = (first ^ low) << n, first << n
        for second in range(size):
            par[row | second] = par[rest | second] ^ (second & (low - 1)).bit_count() & 1
    return bytes(par)


class _OnModel(LinComb):
    """Terms keyed by bitmasks of a rank-n model; combine on one model only."""

    __slots__ = ("model",)
    _CONTEXT = ("model",)

    def __init__(self, model: "HodgeModel", terms=None):
        self.model = model
        super().__init__(terms)

    def _join(self, other):
        _same_model(self, other)
        return super()._join(other)


class _Exterior(_OnModel):
    """Shared storage for classes keyed by (amask, bmask)."""

    __slots__ = ()

    def _key(self, key):
        a, b = key
        limit = 1 << self.model.n
        if not (0 <= a < limit and 0 <= b < limit):
            raise BidegreeError(f"term ({a},{b}) outside rank-{self.model.n} model")
        return (a, b)

    # -- structure ---------------------------------------------------------
    def component(self, p: int, q: int):
        return self._like(
            {k: x for k, x in self.num.items() if k[0].bit_count() == p and k[1].bit_count() == q},
            self.den,
        )

    # -- literals ----------------------------------------------------------
    @classmethod
    def zero(cls, model):
        return cls(model, {})

    @classmethod
    def one(cls, model):
        return cls(model, {(0, 0): 1})

    def to_obj(self):
        by_bidegree: dict[tuple[int, int], list] = {}
        for (a, b), c in sorted(self.terms.items()):
            pq = (a.bit_count(), b.bit_count())
            by_bidegree.setdefault(pq, []).append(
                {
                    "a": [i + 1 for i in _bits(a)],
                    "b": [j + 1 for j in _bits(b)],
                    "coeff": str(c),
                }
            )
        return [
            {"bidegree": list(pq), "terms": terms}
            for pq, terms in sorted(by_bidegree.items())
        ]

    @classmethod
    def from_obj(cls, model, obj):
        """Inverse of to_obj.

        A term off its group's declared bidegree, or an index that is not
        an int, raises BidegreeError; any other malformed structure
        raises ValueError.
        """
        if not isinstance(obj, list):
            raise ValueError(f"expected a list of bidegree groups, got {obj!r}")
        terms = {}
        for group in obj:
            pq = _field(group, "bidegree", list)
            if len(pq) != 2 or any(type(d) is not int for d in pq):
                raise ValueError(f"bidegree must be two integers, got {pq!r}")
            for t in _field(group, "terms", list):
                a = _mask_from_indices(model.n, _field(t, "a", list))
                b = _mask_from_indices(model.n, _field(t, "b", list))
                if [a.bit_count(), b.bit_count()] != pq:
                    raise BidegreeError(f"term {t!r} is not of declared bidegree {pq}")
                c = parse_rational(_field(t, "coeff", str))
                terms[(a, b)] = terms.get((a, b), Q(0)) + c
        return cls(model, terms)

    def _word(self, key) -> str:
        a, b = key
        bb = "".join(f"^{self._bsym}{j+1}" for j in _bits(b))
        return _a_word(a) + bb


def _a_word(a: int) -> str:
    return "^".join(f"a{i+1}" for i in _bits(a)) or "1"


def _field(obj, key, kind):
    """obj[key] for a JSON object obj, which must hold a value of kind."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind):
        raise ValueError(f"expected an object with a {kind.__name__} {key!r}, got {obj!r}")
    return value


def _mask_from_indices(n, indices):
    mask = 0
    prev = 0
    for i in indices:
        if type(i) is not int:
            raise BidegreeError(f"index {i!r} is not an integer")
        if i <= prev:
            raise BidegreeError("indices must be strictly increasing and 1-based")
        if i > n:
            raise BidegreeError(f"index {i} outside rank-{n} model")
        mask |= 1 << (i - 1)
        prev = i
    return mask


def _same_model(u, v):
    if u.model is not v.model:
        raise ModelMismatch(
            f"classes belong to different models (ranks {u.model.n} and {v.model.n})"
        )


class FormClass(_Exterior):
    """Element of /\\A (x) /\\B (the form side)."""

    __slots__ = ()

    _bsym = "b"


class PolyClass(_Exterior):
    """Element of /\\A (x) /\\B* (the polyvector side)."""

    __slots__ = ()

    _bsym = "b*"


class ExtClass(_OnModel):
    """Graded element of /\\A, keyed by amask."""

    __slots__ = ()

    def _key(self, a):
        if not 0 <= a < 1 << self.model.n:
            raise BidegreeError(f"term {a} outside rank-{self.model.n} model")
        return a

    def to_obj(self):
        return [
            {"a": [i + 1 for i in _bits(a)], "coeff": str(c)}
            for a, c in sorted(self.terms.items())
        ]

    _word = staticmethod(_a_word)


class HodgeModel:
    """Rank-n bi-exterior model together with its Todd datum.

    The Todd datum is a form with components only in bidegrees (p, p) and
    constant term 1, given as its term dict {(amask, bmask): coeff}.  It is
    an input, not derived: the strictly torus-like case is todd = None
    (datum 1), which makes the Duflo twist the identity.
    """

    __slots__ = ("n", "todd", "_sqrt", "_inv_sqrt", "_loci_equal", "_c1_parts")

    def __init__(self, n: int, todd: dict | None = None):
        if n < 1:
            raise ValueError("model rank must be at least 1")
        self.n = n
        self._sqrt = self._inv_sqrt = self._loci_equal = self._c1_parts = None
        todd = FormClass(self, {(0, 0): 1} if todd is None else todd)
        for a, b in todd.num:
            if a.bit_count() != b.bit_count():
                raise BidegreeError("todd datum must have only (p,p) components")
        if todd.num.get((0, 0)) != todd.den:
            raise BidegreeError("todd datum must have constant term 1")
        self.todd = todd

    def __repr__(self):
        return f"HodgeModel(n={self.n})"


# ---------------------------------------------------------------------------
# products and contractions
# ---------------------------------------------------------------------------

def wedge(u, v):
    """Graded-commutative product; same-kind classes only."""
    u._join(v)
    n = u.model.n
    par = _parity(n)
    out: dict = {}
    for (a1, b1), c1 in u.num.items():
        odd_b1 = b1.bit_count() & 1
        ra, rb = a1 << n, b1 << n
        for (a2, b2), c2 in v.num.items():
            if a1 & a2 or b1 & b2:
                continue
            c = c1 * c2
            if par[ra | a2] ^ par[rb | b2] ^ odd_b1 & a2.bit_count():
                c = -c
            key = (a1 | a2, b1 | b2)
            out[key] = out[key] + c if key in out else c
    return u._like(out, u.den * v.den)


def _contract_terms(act: dict, tgt: dict, n: int, pair_sign: int) -> dict:
    """Every term of act acting on every term of tgt, as integer term dicts of rank n.

    An acting word [a(a_act), dual(b_act)] is applied right to left: dual
    generators contract (left interior product, descending index order),
    then the a-part wedges in.  pair_sign is the extra sign per contracted
    pair (+1 for polyvectors on forms, -1 for forms on polyvectors).
    Zero sums are kept.
    """
    par = _parity(n)
    per_pair = int(pair_sign < 0)
    out: dict = {}
    for (a1, b1), c1 in act.items():
        odd_k = b1.bit_count() & 1
        ra, rb, keep = a1 << n, b1 << n, ~b1
        for (a2, b2), c2 in tgt.items():
            if b1 & ~b2 or a1 & a2:
                continue
            c = c1 * c2
            if par[ra | a2] ^ par[rb | b2] ^ odd_k & (a2.bit_count() + per_pair):
                c = -c
            key = (a1 | a2, b2 & keep)
            out[key] = out[key] + c if key in out else c
    return out


def _contract(act, tgt, pair_sign):
    """Every term of act acting on every term of tgt; the result has tgt's kind."""
    _same_model(act, tgt)
    return tgt._like(_contract_terms(act.num, tgt.num, tgt.model.n, pair_sign), act.den * tgt.den)


def contract_T_on_Omega(alpha: PolyClass, v: FormClass) -> FormClass:
    """Polyvector acting on a form: wedge on A, interior product on B.

    A (p,q) polyvector sends a (p',q') form to bidegree (p+p', q'-q); the
    result is zero whenever q > q'.
    """
    return _contract(alpha, v, +1)


def contract_Omega_on_T(v: FormClass, alpha: PolyClass) -> PolyClass:
    """Form acting on a polyvector: the dual contraction.

    This is the only contraction used inside the Duflo operator.  Each
    contracted pair carries the graded-swap sign of the defining pairing.
    """
    return _contract(v, alpha, -1)


# ---------------------------------------------------------------------------
# exponentials, square roots, line-bundle classes
# ---------------------------------------------------------------------------

def exp_form(v: FormClass) -> FormClass:
    """Exponential of a class of even total degree with zero constant term.

    Even forms commute, so exp is the graded recursion of sparse.graded_exp
    over wedge on the pieces of total degree 2d; a term of odd total degree
    raises BidegreeError, since odd forms anticommute and the recursion
    fails.
    """
    if (0, 0) in v.num:
        raise NonzeroConstantTerm("exp_form needs a class with zero (0,0) part")
    pieces: list[dict] = [{} for _ in range(v.model.n + 1)]
    for (a, b), x in v.num.items():
        degree = a.bit_count() + b.bit_count()
        if degree & 1:
            raise BidegreeError(f"exp_form needs even total degree, got a degree-{degree} term")
        pieces[degree // 2][(a, b)] = x
    return graded_exp([v._like(p, v.den) for p in pieces], FormClass.one(v.model), wedge)


def atiyah_line(model: HodgeModel, c1: FormClass) -> FormClass:
    """Obstruction class of line-bundle data: its first Chern form."""
    if c1.model is not model:
        raise ModelMismatch("c1 built on a different model")
    for a, b in c1.num:
        if a.bit_count() != 1 or b.bit_count() != 1:
            raise BidegreeError("line-bundle first Chern class must be pure (1,1)")
    return c1


def _even_pieces(f: FormClass, n: int) -> list[FormClass]:
    return [f.component(p, p) for p in range(n + 1)]


def sqrt_todd(model: HodgeModel) -> FormClass:
    """Formal square root of the Todd datum, constant term 1, exact."""
    if model._sqrt is None:
        model._sqrt = unit_sqrt(_even_pieces(model.todd, model.n), wedge)
    return model._sqrt


def inv_sqrt_todd(model: HodgeModel) -> FormClass:
    """Formal inverse of sqrt_todd: the unique series with s*u = 1."""
    if model._inv_sqrt is None:
        model._inv_sqrt = unit_inverse(_even_pieces(sqrt_todd(model), model.n), wedge)
    return model._inv_sqrt


def duflo(model: HodgeModel, alpha: PolyClass) -> PolyClass:
    """Duflo twist: contraction of the Todd square root into a polyvector."""
    return contract_Omega_on_T(sqrt_todd(model), alpha)


def duflo_inverse(model: HodgeModel, alpha: PolyClass) -> PolyClass:
    return contract_Omega_on_T(inv_sqrt_todd(model), alpha)


def check_duflo_roundtrip(model: HodgeModel, alpha: PolyClass) -> bool:
    """Whether duflo_inverse(duflo(alpha)) and duflo(duflo_inverse(alpha)) are alpha."""
    return (
        duflo_inverse(model, duflo(model, alpha))
        == alpha
        == duflo(model, duflo_inverse(model, alpha))
    )


def _nonzero(terms: dict) -> dict:
    return {k: x for k, x in terms.items() if x}


class LineBundle:
    """Per-c1 data shared by every alpha checked against one line bundle.

    exp is exp(c1), and mukai is the Mukai vector exp(c1) ^ sqrt(Todd).

    Both maps of the Mukai sweep are linear in alpha and kept here as
    operators on the 4^n polyvector basis terms, each the contraction
    _contract_terms of a basis term into a form's numerators: obstruction()
    for alpha -| exp(c1), keyed (amask, 0), and moduli_action() for
    D(alpha) -| v(L), from sqrt_todd(model) and mukai.  Each is built on
    its first use, not here, from the attributes as they are then, and is
    held as integer images over the forms' denominator (see _act).
    contract_exp_atiyah, exp_atiyah_kernel, mukai_sweep and
    check_mukai_implication take a LineBundle and read the model from it,
    so a sweep over many alphas against one c1 builds all of this once.
    """

    __slots__ = ("model", "exp", "mukai", "_obstruction", "_moduli")

    def __init__(self, model: HodgeModel, c1: FormClass):
        self.exp = exp_form(atiyah_line(model, c1))
        self.model = model
        self.mukai = wedge(self.exp, sqrt_todd(model))
        self._obstruction = None
        self._moduli = None

    def obstruction(self) -> tuple[list[dict], int]:
        if self._obstruction is None:
            n = self.model.n
            # a basis term (a, b) fully contracts only the terms of b-mask b
            by_b: dict[int, dict] = {}
            for (a, b), x in self.exp.num.items():
                by_b.setdefault(b, {})[(a, b)] = x
            images = [_contract_terms({k: 1}, by_b.get(k[1], {}), n, +1) for k in _keys(n)]
            self._obstruction = images, self.exp.den
        return self._obstruction

    def moduli_action(self) -> tuple[list[dict], int]:
        if self._moduli is None:
            self._moduli = _moduli_operator(self)
        return self._moduli


def _moduli_operator(line: LineBundle) -> tuple[list[dict], int]:
    """D(beta) -| v(L) for every basis term beta, as integer images over one denominator.

    D(beta) and its contraction into v(L) are integer term dicts, from the
    numerators of the Todd root and the Mukai vector, over their two
    denominators.
    """
    root, mukai = sqrt_todd(line.model), line.mukai
    return _duflo_images(root.num, mukai.num, _keys(line.model.n), line.model.n), root.den * mukai.den


def _duflo_images(root: dict, target: dict, keys: list, n: int) -> list[dict]:
    """D(beta) -| target for each basis term beta in keys, root the Todd root's numerators."""
    return [
        _nonzero(_contract_terms(_contract_terms(root, {k: 1}, n, -1), target, n, +1))
        for k in keys
    ]


def _act(op: tuple[list[dict], int], alpha: PolyClass) -> tuple[dict, int]:
    """The operator op = (images, den) on alpha, as integer terms over one denominator.

    The image of the term (a, b) is images[(a << n) | b]; zeros are dropped.
    """
    images, den = op
    n = alpha.model.n
    acc: dict = {}
    for (a, b), m in alpha.num.items():
        for k, x in images[(a << n) | b].items():
            acc[k] = acc[k] + m * x if k in acc else m * x
    return _nonzero(acc), den * alpha.den


def mukai_line(model: HodgeModel, c1: FormClass) -> FormClass:
    """Mukai vector of line-bundle data: exp(c1) twisted by the Todd root."""
    return LineBundle(model, c1).mukai


def contract_exp_atiyah(alpha: PolyClass, line: LineBundle) -> ExtClass:
    """Total contraction against the exponential obstruction class.

    The (p,k) part of alpha pairs all k dual factors against the k-th
    wedge power of the (1,1) class c1 over k!; A-factors wedge.  The
    result is graded by p+k: the b-free part of
    contract_T_on_Omega(alpha, exp_form(c1)).
    """
    _same_model(alpha, line)
    terms = _contract_terms(alpha.num, line.exp.num, alpha.model.n, +1)
    b_free = {a: x for (a, b), x in terms.items() if not b}
    return ExtClass(alpha.model)._like(b_free, alpha.den * line.exp.den)


# ---------------------------------------------------------------------------
# verification routines
# ---------------------------------------------------------------------------

def _keys(n: int) -> list[tuple[int, int]]:
    """Every term (a, b) of rank n, in canonical order: index (a << n) | b."""
    return [(a, b) for a in range(1 << n) for b in range(1 << n)]


def _keys_11(n: int) -> list[tuple[int, int]]:
    return [(1 << i, 1 << j) for i in range(n) for j in range(n)]


def poly_basis_11(model: HodgeModel) -> list[PolyClass]:
    return [PolyClass(model, {k: 1}) for k in _keys_11(model.n)]


def _basis_polys(model: HodgeModel, vecs: list[tuple[dict, int]]):
    """Each (num, den) vector as the polyvector num[(a << n) | b] / den on the term (a, b)."""
    n = model.n
    zero = PolyClass(model)
    for num, den in vecs:
        yield zero._like({(c >> n, c & ((1 << n) - 1)): x for c, x in num.items()}, den)


def exp_atiyah_kernel(line: LineBundle) -> list[PolyClass]:
    """Exact basis of {alpha : alpha -| exp(c1) = 0} on line.model.

    Linear in alpha, so the kernel is computed from the line's
    obstruction images of the canonical term basis.
    """
    return list(_basis_polys(line.model, kernel_of_images(line.obstruction()[0])))


def mukai_sweep(line: LineBundle) -> tuple[int, PolyClass | None]:
    """Dimension of exp_atiyah_kernel, and its first vector whose obstruction or
    moduli action is nonzero, each decided on the vector's integer numerators.
    """
    ker = kernel_of_images(line.obstruction()[0])
    for alpha in _basis_polys(line.model, ker):
        if any(_act(op(), alpha)[0] for op in (line.obstruction, line.moduli_action)):
            return len(ker), alpha
    return len(ker), None


class MukaiImplicationReport:
    """The implication holds unless obstruction is zero and moduli_action is not."""

    __slots__ = ("obstruction", "moduli_action")

    def __init__(self, obstruction: ExtClass, moduli_action: FormClass):
        self.obstruction = obstruction  # alpha -| exp(c1)
        self.moduli_action = moduli_action  # D(alpha) -| v(L)


def check_mukai_implication(alpha: PolyClass, line: LineBundle) -> MukaiImplicationReport:
    """One instance of: obstruction vanishing forces Mukai-pairing vanishing.

    alpha must live on line.model.  A failed implication would mean the
    sign conventions above are inconsistent, so the report carries both
    classes for the caller to judge rather than raising.
    """
    _same_model(alpha, line)
    (h, hden), (m, mden) = _act(line.obstruction(), alpha), _act(line.moduli_action(), alpha)
    return MukaiImplicationReport(
        ExtClass(line.model)._like({a: x for (a, _), x in h.items()}, hden),
        FormClass(line.model)._like(m, mden),
    )


class FirstOrderReport:
    __slots__ = ("quarter_identity", "h2_component", "loci_equal", "witness")

    def __init__(
        self,
        quarter_identity: bool,
        h2_component: bool,
        loci_equal: bool | None,
        witness: dict | None,
    ):
        self.quarter_identity = quarter_identity  # D(alpha) - alpha = (c1/4) -| alpha
        self.h2_component = h2_component  # top-left component identity against the Todd root
        self.loci_equal = loci_equal  # vanishing loci of the two pairings coincide
        self.witness = witness


def first_order_check(model: HodgeModel, alpha: PolyClass) -> FirstOrderReport:
    """Identities for (1,1) polyvectors when the Todd datum designates c1.

    The designated first Chern form is twice the (1,1) part of the Todd
    datum.  Checks:

      (i)  the Duflo twist moves alpha by exactly (c1/4) -| alpha;
      (ii) the 2-wedge A-component of D(alpha) -| sqrt(Todd) equals
           alpha -| (c1/2);
      (iii) {alpha : alpha -| c1 = 0} equals
           {alpha : D(alpha) -| v(O) = 0} as subspaces of the (1,1) part,
           compared through canonical kernel bases.

    (i) and (ii) hold for any Todd datum.  The locus comparison (iii) is
    guaranteed only when the datum is generated by c1 (components are
    rational multiples of wedge powers of c1); with independent higher
    (p,p) data the two loci genuinely differ, so callers sweeping (iii)
    must build the datum from c1.  (iii) depends only on the model, so it
    is computed on the first call and kept on the model, as are c1, c1/4
    and c1/2.
    """
    for a, b in alpha.num:
        if a.bit_count() != 1 or b.bit_count() != 1:
            raise BidegreeError("first_order_check needs a pure (1,1) polyvector")
    if model._c1_parts is None:
        c1 = model.todd.component(1, 1).scale(2)
        model._c1_parts = (c1, c1.scale(Fraction(1, 4)), c1.scale(Fraction(1, 2)))
    c1, quarter, half = model._c1_parts
    d_alpha = duflo(model, alpha)

    check_i = d_alpha == alpha + contract_Omega_on_T(quarter, alpha)

    lhs = contract_T_on_Omega(d_alpha, sqrt_todd(model)).component(2, 0)
    rhs = contract_T_on_Omega(alpha, half).component(2, 0)
    check_ii = lhs == rhs

    if model._loci_equal is None:
        k1, k2 = _first_order_loci(model, c1)
        model._loci_equal = k1 == k2
    check_iii = model._loci_equal

    witness = None
    if not (check_i and check_ii and check_iii):
        witness = {
            "alpha": alpha.to_obj(),
            "todd": model.todd.to_obj(),
            "duflo_alpha": d_alpha.to_obj(),
        }
    return FirstOrderReport(check_i, check_ii, check_iii, witness)


def _first_order_loci(model: HodgeModel, c1: FormClass):
    """Canonical kernel bases of alpha -| c1 and D(alpha) -| v(O) on (1,1), v(O) = R.

    The images are read from the numerators of c1 and of the Todd root R;
    leaving out the denominators scales each image set by one constant.
    """
    n = model.n
    root = sqrt_todd(model).num
    k1 = kernel_of_images([_nonzero(_contract_terms({k: 1}, c1.num, n, +1)) for k in _keys_11(n)])
    return k1, kernel_of_images(_duflo_images(root, root, _keys_11(n), n))
