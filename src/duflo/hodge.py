"""Bi-exterior model of polyvector fields acting on differential forms.

The model is built on two rank-n spaces: generators a_1..a_n span the
"cohomological" directions and b_1..b_n the holomorphic form directions.
Forms live in /\\A (x) /\\B, polyvector fields in /\\A (x) /\\B*, and the
endomorphism side (line-bundle case) is /\\A.  All generators are odd, so
a term is the wedge word  a_{i1} ^ ... ^ a_{ip} ^ b_{j1} ^ ... ^ b_{jq}
with ascending indices, and every sign is the permutation sign relative
to that order.  Outside this module a term is the pair of bitmasks
(amask, bmask): constructors read pairs through _key, and terms, to_obj
and from_obj speak pairs.  Inside, every numerator is keyed by the one
int (amask << n) | bmask, whose order is the pairs' order, and products,
contractions and operator images all run on those ints.

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

Every such sign is one rule on word positions, a_i at i and b_j at n + j:
the word of a key followed by the word of another has the parity of its
inversions, the pairs of a position in the first above a position in the
second.  _sign_mask counts them from the first key's side, so a wedge of
keys k1, k2 has sign (k2 & _sign_mask(k1)).bit_count() & 1, and a word
[a(a_act), dual(b_act)] on a target term that value XOR (|b_act| & e),
e = 1 for the extra minus per pair.  A wedge needs k1 & k2 == 0 and gives
k1 | k2; a contraction needs k1 & (k2 ^ low) == 0, low = (1 << n) - 1 the
b-bits, and gives k1 ^ k2.

A class is a sparse.LinComb, integer numerators over one denominator, so
every product and contraction runs in Z: it combines the numerator maps
and multiplies the two denominators.  The two Mukai operators, the
obstruction alpha -| exp(c1), a (p, 0) form, and the moduli action, are
the LineBundle hooks a planted fault patches: integer images of basis
terms through the one contraction loop _contract_terms, which the class
contractions also run.  The moduli action is two term maps, _twists by
the Todd root and then _hooks into v(L); the first-order identities read
one record per model, _first_order_ops, built by the same two maps on the
(1,1) basis.  A pass builds no kernel for either sweep line: with Todd = 1
the Mukai line passes on the factorization lemma moduli(beta) =
obstruction(beta) ^ exp(c1) for the 2^n generators beta = (0, J), and the
Duflo round trip on u ^ s = 1 and s ^ s = T for the Todd roots (README).
Any other Mukai line sweeps the kernel, each vector through
check_mukai_implication, the entry a witness replays through.  No
inverse twist is applied, and the class route to the obstruction is the
tests' reference (tests/pbw_oracle.py).  Every class in a witness is a
FormClass or a PolyClass and reads back through from_obj.  Everything is
exact; no floats anywhere.
"""

from fractions import Fraction

from .kernels import kernel_of_images
from .sparse import LinComb, graded_exp, graded_power, parse_rational, quoted


class ModelMismatch(Exception):
    pass


class BidegreeError(Exception):
    pass


class NonzeroConstantTerm(Exception):
    pass


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _bidegree(key: int, n: int) -> tuple[int, int]:
    return (key >> n).bit_count(), (key & ((1 << n) - 1)).bit_count()


def _sign_mask(key: int, n: int) -> int:
    """The key-bits g at which an odd number of key's generators follow g in word order.

    The word of key followed by the word of other then has sign
    (-1)^|other & mask|: each generator of other counts the generators of
    key it must pass.  The parities are a suffix XOR of the word positions
    r, with a_i at i and b_j at n + j.
    """
    low = (1 << n) - 1
    s = ((key & low) << n | key >> n) >> 1
    shift = 1
    while shift < 2 * n:
        s ^= s >> shift
        shift <<= 1
    return (s & low) << n | s >> n


class _Exterior(LinComb):
    """Classes of a rank-n model keyed by the int (amask << n) | bmask; combine on one model only."""

    __slots__ = ("model",)
    _CONTEXT = ("model",)

    def __init__(self, model: "HodgeModel", terms=None):
        self.model = model
        super().__init__(terms)

    def _join(self, other):
        _same_model(self, other)
        return super()._join(other)

    def _key(self, key):
        a, b = key
        n = self.model.n
        if not (0 <= a < 1 << n and 0 <= b < 1 << n):
            raise BidegreeError(f"term ({a},{b}) outside rank-{n} model")
        return a << n | b

    @property
    def terms(self) -> dict:
        """The coefficients as a fresh {(amask, bmask): Fraction} dict."""
        n = self.model.n
        return {(k >> n, k & ((1 << n) - 1)): c for k, c in super().terms.items()}

    # -- structure ---------------------------------------------------------
    def component(self, p: int, q: int):
        n = self.model.n
        terms = {k: x for k, x in self.num.items() if _bidegree(k, n) == (p, q)}
        return self._like(terms, self.den)

    # -- literals ----------------------------------------------------------
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
            raise ValueError(f"expected a list of bidegree groups, got {quoted(obj)}")
        terms = {}
        for group in obj:
            pq = _field(group, "bidegree", list)
            if len(pq) != 2 or any(type(d) is not int for d in pq):
                raise ValueError(f"bidegree must be two integers, got {quoted(pq)}")
            for t in _field(group, "terms", list):
                a = _mask_from_indices(model.n, _field(t, "a", list))
                b = _mask_from_indices(model.n, _field(t, "b", list))
                if [a.bit_count(), b.bit_count()] != pq:
                    raise BidegreeError(f"term {quoted(t)} is not of declared bidegree {pq}")
                c = parse_rational(_field(t, "coeff", str))
                terms[(a, b)] = terms.get((a, b), Fraction(0)) + c
        return cls(model, terms)

    def _word(self, key) -> str:
        a, b = key
        aa = "^".join(f"a{i+1}" for i in _bits(a)) or "1"
        return aa + "".join(f"^{self._bsym}{j+1}" for j in _bits(b))


def _field(obj, key, kind):
    """obj[key] for a JSON object obj, which must hold a value of kind."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind):
        raise ValueError(f"expected an object with a {kind.__name__} {key!r}, got {quoted(obj)}")
    return value


def _mask_from_indices(n, indices):
    mask = 0
    prev = 0
    for i in indices:
        if type(i) is not int:
            raise BidegreeError(f"index {quoted(i)} is not an integer")
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


class HodgeModel:
    """Rank-n bi-exterior model together with its Todd datum.

    The Todd datum is a form with components only in bidegrees (p, p) and
    constant term 1, given as its term dict {(amask, bmask): coeff}.  It is
    an input, not derived: the strictly torus-like case is todd = None
    (datum 1), which makes the Duflo twist the identity.
    """

    __slots__ = ("n", "todd", "_sqrt", "_first_order")

    def __init__(self, n: int, todd: dict | None = None):
        if n < 1:
            raise ValueError("model rank must be at least 1")
        self.n = n
        self._sqrt = self._first_order = None
        todd = FormClass(self, {(0, 0): 1} if todd is None else todd)
        for k in todd.num:
            p, q = _bidegree(k, n)
            if p != q:
                raise BidegreeError("todd datum must have only (p,p) components")
        if todd.num.get(0) != todd.den:
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
    out: dict = {}
    for k1, c1 in u.num.items():
        mask = _sign_mask(k1, n)
        for k2, c2 in v.num.items():
            if k1 & k2:
                continue
            c = -c1 * c2 if (k2 & mask).bit_count() & 1 else c1 * c2
            key = k1 | k2
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
    low = (1 << n) - 1
    out: dict = {}
    for k1, c1 in act.items():
        mask = -1  # built at the first target k1 meets: most act terms of a twist meet none
        if pair_sign < 0 and (k1 & low).bit_count() & 1:
            c1 = -c1
        for k2, c2 in tgt.items():
            if k1 & (k2 ^ low):
                continue
            if mask < 0:
                mask = _sign_mask(k1, n)
            c = -c1 * c2 if (k2 & mask).bit_count() & 1 else c1 * c2
            key = k1 ^ k2
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

def _weight_pieces(v: FormClass) -> list[FormClass]:
    """The parts of v by weight, half the total degree, in one pass over its terms;
    odd forms anticommute, so a term of odd total degree raises BidegreeError."""
    pieces: list[dict] = [{} for _ in range(v.model.n + 1)]
    for k, x in v.num.items():
        degree = k.bit_count()
        if degree & 1:
            raise BidegreeError(f"exp_form needs even total degree, got a degree-{degree} term")
        pieces[degree // 2][k] = x
    return [v._like(p, v.den) for p in pieces]


def exp_form(v: FormClass) -> FormClass:
    """Exponential of a class of even total degree with zero constant term.

    Even forms commute, so exp is the graded recursion of sparse.graded_exp
    over wedge on the pieces of total degree 2d.
    """
    if 0 in v.num:
        raise NonzeroConstantTerm("exp_form needs a class with zero (0,0) part")
    return graded_exp(_weight_pieces(v), FormClass.one(v.model), wedge)


def sqrt_todd(model: HodgeModel) -> FormClass:
    """Formal square root T^(1/2) of the Todd datum T, constant term 1, exact."""
    if model._sqrt is None:
        model._sqrt = graded_power(_weight_pieces(model.todd), wedge, Fraction(1, 2))
    return model._sqrt


def inv_sqrt_todd(model: HodgeModel) -> FormClass:
    """T^(-1/2), taken from the Todd datum T as sqrt_todd is, so the Duflo
    round trip checks s ^ u = 1 for the two roots instead of building on it.
    Only a round trip reads it, once per model, so the model keeps none."""
    return graded_power(_weight_pieces(model.todd), wedge, Fraction(-1, 2))


def duflo(model: HodgeModel, alpha: PolyClass) -> PolyClass:
    """Duflo twist: contraction of the Todd square root into a polyvector."""
    return contract_Omega_on_T(sqrt_todd(model), alpha)


def check_duflo_roundtrip(model: HodgeModel, alpha: PolyClass) -> dict | None:
    """None if D^-1(D(alpha)) == alpha for every alpha and the twist is by a root
    of the Todd datum T, else the witness: alpha and the Todd datum.

    D^-1(D(alpha)) = (u ^ s) -| alpha = D(D^-1(alpha)) by the module law, as the
    roots s and u, each taken from T, are even: the line decides u ^ s = 1, and
    then s ^ s = T as u ^ T = s, a product with the sparser T.  The second
    fails when both roots are the roots of one wrong datum."""
    _same_model(alpha, model.todd)
    s, u = sqrt_todd(model), inv_sqrt_todd(model)
    if wedge(u, s) == FormClass.one(model) and wedge(u, model.todd) == s:
        return None
    return {"alpha": alpha.to_obj(), "todd": model.todd.to_obj()}


def _nonzero(terms: dict) -> dict:
    return {k: x for k, x in terms.items() if x}


class LineBundle:
    """Per-c1 data shared by every alpha checked against one line bundle.

    c1, a pure (1,1) form on model, is kept for a failing sweep's witness;
    exp is exp(c1) and mukai the Mukai vector exp(c1) ^ sqrt(Todd).  The
    hooks a planted fault patches, obstruction(keys) for alpha -| exp(c1)
    and moduli_action(keys) for D(alpha) -| v(L), return the integer images
    of the basis terms keys, int keys of model, over one denominator, by
    _contract_terms from the attributes as they are then; full(hook) keeps
    a hook's images of all 4^n terms, the image of key k at index k, so a
    sweep builds them once.
    """

    __slots__ = ("model", "c1", "exp", "mukai", "_full")

    def __init__(self, model: HodgeModel, c1: FormClass):
        if c1.model is not model:
            raise ModelMismatch("c1 built on a different model")
        for k in c1.num:
            if _bidegree(k, model.n) != (1, 1):
                raise BidegreeError("line-bundle first Chern class must be pure (1,1)")
        self.exp = exp_form(c1)
        self.model = model
        self.c1 = c1
        self.mukai = wedge(self.exp, sqrt_todd(model))
        self._full = {}

    def obstruction(self, keys) -> tuple[list[dict], int]:
        n = self.model.n
        low = (1 << n) - 1
        # a basis term fully contracts only the terms of its own b-mask
        by_b: dict[int, dict] = {}
        for k, x in self.exp.num.items():
            by_b.setdefault(k & low, {})[k] = x
        return [_contract_terms({k: 1}, by_b.get(k & low, {}), n, +1) for k in keys], self.exp.den

    def moduli_action(self, keys) -> tuple[list[dict], int]:
        root, n = sqrt_todd(self.model), self.model.n
        return _hooks(_twists(root.num, keys, n), self.mukai.num, n), root.den * self.mukai.den

    def full(self, hook: str) -> tuple[list[dict], int]:
        if hook not in self._full:
            self._full[hook] = getattr(self, hook)(range(1 << 2 * self.model.n))
        return self._full[hook]


def _twists(form: dict, keys: list, n: int) -> list[dict]:
    """form -| e for each basis term e in keys (forms on polyvectors); zero sums kept."""
    return [_contract_terms(form, {k: 1}, n, -1) for k in keys]


def _hooks(polys: list, target: dict, n: int) -> list[dict]:
    """p -| target for each integer polyvector p in polys (polyvectors on forms), zeros dropped."""
    return [_nonzero(_contract_terms(p, target, n, +1)) for p in polys]


def _act(op: tuple[list[dict], int], alpha: PolyClass) -> tuple[dict, int]:
    """The operator op = (images, den) on alpha, as integer terms over one denominator.

    The image of the term k is images[k], a list's or a dict's; zeros are dropped.
    """
    images, den = op
    acc: dict = {}
    for k, m in alpha.num.items():
        for t, x in images[k].items():
            acc[t] = acc[t] + m * x if t in acc else m * x
    return _nonzero(acc), den * alpha.den


# ---------------------------------------------------------------------------
# verification routines
# ---------------------------------------------------------------------------

def term_keys(n: int) -> list[tuple[int, int]]:
    """Every term (a, b) of rank n, in canonical order."""
    return [(a, b) for a in range(1 << n) for b in range(1 << n)]


def term_keys_11(n: int) -> list[tuple[int, int]]:
    return [(1 << i, 1 << j) for i in range(n) for j in range(n)]


def _keys_11(n: int) -> list[int]:
    """The keys of term_keys_11(n), in its order."""
    return [1 << (i + n) | 1 << j for i in range(n) for j in range(n)]


def poly_basis_11(model: HodgeModel) -> list[PolyClass]:
    zero = PolyClass(model)
    return [zero._like({k: 1}) for k in _keys_11(model.n)]


def exp_atiyah_kernel(line: LineBundle) -> list[PolyClass]:
    """Exact basis of {alpha : alpha -| exp(c1) = 0} on line.model.

    Linear in alpha, so the kernel is computed from the line's
    obstruction images of every term, the image of key k in column k; so
    each (num, den) vector is the polyvector num / den.
    """
    zero = PolyClass(line.model)
    return [zero._like(num, den) for num, den in kernel_of_images(line.full("obstruction")[0])]


def mukai_sweep(line: LineBundle) -> tuple[int, dict | None]:
    """Dimension of exp_atiyah_kernel, and None or the witness of its first vector
    whose obstruction or moduli action is nonzero.  _factorization_certified
    decides a Todd = 1 pass without the kernel; otherwise
    check_mukai_implication pushes each kernel vector through both operators."""
    if line.model.todd == FormClass.one(line.model) and _factorization_certified(line):
        return 4**line.model.n - 2**line.model.n, None
    kernel = exp_atiyah_kernel(line)
    for alpha in kernel:
        obstruction, moduli_action = check_mukai_implication(alpha, line)
        if not (obstruction.is_zero() and moduli_action.is_zero()):
            return len(kernel), {
                "c1": line.c1.to_obj(),
                "alpha": alpha.to_obj(),
                "obstruction": obstruction.to_obj(),
                "moduli_action": moduli_action.to_obj(),
            }
    return len(kernel), None


def _factorization_certified(line: LineBundle) -> bool:
    """Whether the hooks certify a Todd = 1 line: kernel_dim 4^n - 2^n, no failure.

    Each b-free term (a, 0) must have obstruction image a, so the rank is
    2^n, and each generator (0, J) must meet the factorization lemma: its
    moduli image is its obstruction image ^ exp(c1).  The module law
    image(a, b) = a ^ image(0, b) of _contract_terms carries it to all terms."""
    n, zero = line.model.n, FormClass(line.model)
    size = 1 << n
    b_free, gens = [a << n for a in range(size)], list(range(size))
    images, den = line.obstruction(b_free + gens)
    if images[:size] != [{k: den} for k in b_free]:
        return False
    moduli, mden = line.moduli_action(gens)
    return all(zero._like(m, mden) == wedge(zero._like(o, den), line.exp)
               for o, m in zip(images[size:], moduli))


def check_mukai_implication(alpha: PolyClass, line: LineBundle) -> tuple[FormClass, FormClass]:
    """One instance of: obstruction vanishing forces Mukai-pairing vanishing.

    alpha must live on line.model.  Returns (obstruction, moduli_action),
    alpha -| exp(c1) and D(alpha) -| v(L), both forms, the first of
    bidegrees (p, 0) only; the implication holds unless the first is
    zero and the second is not.  A failed implication would
    mean the sign conventions above are inconsistent, so both classes go
    to the caller to judge rather than raising.
    """
    _same_model(alpha, line)
    (h, hden), (m, mden) = (_act(line.full(op), alpha) for op in ("obstruction", "moduli_action"))
    zero = FormClass(line.model)
    return zero._like(h, hden), zero._like(m, mden)


def first_order_check(model: HodgeModel, alpha: PolyClass) -> dict | None:
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
    must build the datum from c1.  Each is linear in alpha: the model keeps
    the record _first_order_ops(model) of the first call, alpha combines
    its images by _act, and D(alpha), the witness's, is taken on classes.
    Returns None, or the witness: alpha, the Todd datum, D(alpha).
    """
    for k in alpha.num:
        if _bidegree(k, model.n) != (1, 1):
            raise BidegreeError("first_order_check needs a pure (1,1) polyvector")
    if model._first_order is None:
        model._first_order = _first_order_ops(model)
    shift, lhs, rhs, (k1, k2) = model._first_order
    d_alpha = duflo(model, alpha)
    check_i = _same((d_alpha.num, d_alpha.den), _act(shift, alpha))
    if check_i and _same(_act(lhs, alpha), _act(rhs, alpha)) and k1 == k2:
        return None
    return {"alpha": alpha.to_obj(), "todd": model.todd.to_obj(), "duflo_alpha": d_alpha.to_obj()}


def _same(u: tuple[dict, int], v: tuple[dict, int]) -> bool:
    """Whether two (nonzero integer terms, denominator) pairs are one value."""
    return {k: x * v[1] for k, x in u[0].items()} == {k: x * u[1] for k, x in v[0].items()}


def _first_order_ops(model: HodgeModel) -> tuple:
    """first_order_check's record (shift, lhs, rhs, (k1, k2)) on model.

    Over the (1,1) basis terms e, c1 twice the Todd datum's (1,1) part and R
    the Todd root's numerators: shift = e + (c1/4) -| e, (i)'s right side;
    k1, k2 the canonical kernel bases of full1 = e -| c1 and full2 = D(e) -| R,
    the loci of (iii) (a denominator scales an image set by one constant);
    lhs, full2's (2, 0) part over R.den^2, and rhs, full1 over 2 c1.den (e -| c1
    is all (2, 0)), the sides of (ii).  Each op is (images, den), keyed for _act.
    """
    c1, root, n = model.todd.component(1, 1).scale(2), sqrt_todd(model), model.n
    keys = _keys_11(n)
    full1 = _hooks([{k: 1} for k in keys], c1.num, n)
    full2 = _hooks(_twists(root.num, keys, n), root.num, n)
    lhs = [{t: x for t, x in m.items() if _bidegree(t, n) == (2, 0)} for m in full2]
    shift = _twists({0: 4 * c1.den, **c1.num}, keys, n)
    return ((dict(zip(keys, shift)), 4 * c1.den), (dict(zip(keys, lhs)), root.den**2),
            (dict(zip(keys, full1)), 2 * c1.den), (kernel_of_images(full1), kernel_of_images(full2)))
