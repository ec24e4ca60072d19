"""Built-in algebras and representations used by the verification suites.

Catalog algebras: abelian(n) (names "abelian1" to "abelian16", capped at
lie.MAX_JSON_DIM like a JSON algebra, since the constants take n^3 slots),
heisenberg3, sl2, gl2.  Each is a JSON algebra definition, every bracket
written once with i < j, that lie.algebra_from_json completes by
antisymmetry and checks.  Every algebra also exposes its adjoint
representation; the named ones below are small favorites, each a table of
integer rows, one matrix per basis element (abelianN's computed from N),
and only a catalog algebra, looked up by its exact name, gets them.
"""

import json
import os
from functools import partial

from .lie import MAX_JSON_DIM, LieAlgebra, Representation, adjoint_rep, algebra_from_json


def abelian(n: int) -> LieAlgebra:
    if not 1 <= n <= MAX_JSON_DIM:
        raise ValueError(f"abelianN needs N from 1 to {MAX_JSON_DIM}, got 'abelian{n}'")
    labels = [f"x{i+1}" for i in range(n)]
    return algebra_from_json({"dim": n, "labels": labels, "brackets": []}, name=f"abelian{n}")


def heisenberg3() -> LieAlgebra:
    # [x, y] = z, z central
    obj = {"dim": 3, "labels": ["x", "y", "z"], "brackets": [{"i": 0, "j": 1, "coeffs": [0, 0, 1]}]}
    return algebra_from_json(obj, name="heisenberg3")


def sl2() -> LieAlgebra:
    # basis (e, f, h): [e,f] = h, [e,h] = -2e, [f,h] = 2f
    obj = {"dim": 3, "labels": ["e", "f", "h"], "brackets": [
        {"i": 0, "j": 1, "coeffs": [0, 0, 1]},
        {"i": 0, "j": 2, "coeffs": [-2, 0, 0]},
        {"i": 1, "j": 2, "coeffs": [0, 2, 0]},
    ]}
    return algebra_from_json(obj, name="sl2")


def gl2() -> LieAlgebra:
    # basis (E11, E12, E21, E22): [E_ab, E_cd] = d_bc E_ad - d_da E_cb
    units = [(1, 1), (1, 2), (2, 1), (2, 2)]
    brackets = []
    for i, (a, b) in enumerate(units):
        for j, (c, d) in enumerate(units[i + 1 :], i + 1):
            coeffs = [0] * 4
            if b == c:
                coeffs[units.index((a, d))] += 1
            if d == a:
                coeffs[units.index((c, b))] -= 1
            brackets.append({"i": i, "j": j, "coeffs": coeffs})
    obj = {"dim": 4, "labels": [f"E{a}{b}" for a, b in units], "brackets": brackets}
    return algebra_from_json(obj, name="gl2")


# name -> (algebra builder, {representation name: one int matrix per basis
# element, in the algebra's basis order}); _entry adds the abelian family,
# one entry per name in _ABELIAN.
CATALOG = {
    "heisenberg3": (heisenberg3, {"standard": [
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],  # x
        [[0, 0, 0], [0, 0, 1], [0, 0, 0]],  # y
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],  # z
    ]}),
    "sl2": (sl2, {
        "standard": [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]],  # e, f, h
        # action on cubic monomials x^(3-k) y^k, k = 0..3
        "sym3": [
            [[0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3], [0, 0, 0, 0]],  # e = x d/dy
            [[0, 0, 0, 0], [3, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0]],  # f = y d/dx
            [[3, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -3]],  # h
        ],
    }),
    "gl2": (gl2, {"standard": [  # E11, E12, E21, E22
        [[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]],
    ]}),
}
_ABELIAN = {f"abelian{n}": n for n in range(1, MAX_JSON_DIM + 1)}


def _entry(name: str):
    """The CATALOG entry of name, abelianN's for a name in _ABELIAN; None for any other name."""
    if name in _ABELIAN:
        n = _ABELIAN[name]
        diag = [[[int(i == j == g) for j in range(n)] for i in range(n)] for g in range(n)]
        return partial(abelian, n), {"zero": [[[0, 0], [0, 0]]] * n, "diag": diag}
    return CATALOG.get(name)


def algebra_names() -> list[str]:
    return ["abelian2", "abelian3", *CATALOG]


def load_algebra(spec: str) -> LieAlgebra:
    """Resolve a catalog name, 'abelianN', or a path to a JSON definition.

    abelianN with N outside 1 to MAX_JSON_DIM is refused by its N.  A JSON
    algebra is named by its file's basename, which must not be a catalog
    name: its lines would claim to be that algebra's.
    """
    entry = _entry(spec)
    if entry:
        return entry[0]()
    tail = spec.removeprefix("abelian")
    if tail != spec and tail.isascii() and tail.isdigit() and (tail == "0" or tail[0] != "0"):
        got = repr(spec) if len(tail) <= len(str(MAX_JSON_DIM)) else f"a {len(tail)}-digit N"
        raise ValueError(f"abelianN needs N from 1 to {MAX_JSON_DIM}, got {got}")
    if spec.endswith(".json") or os.path.sep in spec or os.path.exists(spec):
        name = os.path.basename(spec)
        if _entry(name):
            raise ValueError(f"JSON algebra {spec!r} is named like the catalog algebra {name!r}")
        with open(spec, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except RecursionError:
                raise ValueError(f"JSON algebra {spec!r} is nested too deeply") from None
        return algebra_from_json(obj, name=name)
    raise ValueError(f"unknown algebra {spec!r}; try one of {algebra_names()} or a JSON file")


def _builders(alg: LieAlgebra) -> dict:
    """name -> builder of each representation of alg: one per catalog table, then the adjoint."""
    _, tables = _entry(alg.name) or (None, {})
    builders = {name: partial(Representation, matrices=t, name=name) for name, t in tables.items()}
    return {**builders, "adjoint": adjoint_rep}


def representations(alg: LieAlgebra) -> dict[str, Representation]:
    """The named representations of a catalog algebra, plus the adjoint."""
    return {name: build(alg) for name, build in _builders(alg).items()}


def load_representation(alg: LieAlgebra, name: str) -> Representation:
    """The one representation called name, built alone."""
    builders = _builders(alg)
    if name not in builders:
        raise ValueError(
            f"algebra {alg.name or alg.dim} has no representation {name!r}; "
            f"available: {sorted(builders)}"
        )
    return builders[name](alg)
