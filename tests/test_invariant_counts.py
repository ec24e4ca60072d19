"""Invariant counts of S(g)^g, degree by degree, from invariant theory.

The lie-invariant-annihilation and lie-invariant-image suites check each
invariant that invariants_s returns, so an invariant it loses leaves no
line behind and no suite can fail on it.  These tests pin the number of
invariants in each degree against counts that do not come from the code:
S(g)^g is a polynomial ring on generators of known degrees, so its
degree-d piece has one basis element per multiset of generators of total
degree d.

  * gl2: Chevalley, generators of degrees 1 and 2 (trace, determinant);
  * gl3: generators of degrees 1, 2 and 3 (the traces of X, X^2 and X^3);
  * sl2: the Casimir, degree 2;
  * heisenberg3: the centre z, degree 1 (ad(x) = z d/dy, ad(y) = -z d/dx);
  * abelian3: every element is invariant, three generators of degree 1.

The counts do not depend on the basis, so gl2 written in dense rational
bases has gl2's counts too.
"""

import importlib.util
import os

import pytest

from duflo import catalog
from duflo.lie import LieAlgebra, algebra_from_json
from duflo.pbw import invariants_s

from test_lie import gl_constants
from test_stream_digests import dense_gl2

TOP = 5
GENERATOR_DEGREES = {
    "gl2": (1, 2),
    "sl2": (2,),
    "heisenberg3": (1,),
    "abelian3": (1, 1, 1),
}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def free_counts(degrees, top):
    """Dimensions in degrees 1..top of a polynomial ring on generators of these degrees."""
    dims = [1] + [0] * top
    for g in degrees:
        for d in range(g, top + 1):
            dims[d] += dims[d - g]
    return dims[1:]


def counts(alg, top=TOP):
    return [len(invariants_s(alg, d)) for d in range(1, top + 1)]


def test_free_counts_are_the_known_series():
    assert free_counts(GENERATOR_DEGREES["sl2"], TOP) == [0, 1, 0, 1, 0]
    # partitions of d into parts <= 2
    assert free_counts(GENERATOR_DEGREES["gl2"], TOP) == [1, 2, 2, 3, 3]
    assert free_counts(GENERATOR_DEGREES["heisenberg3"], TOP) == [1] * 5
    assert free_counts(GENERATOR_DEGREES["abelian3"], TOP) == [
        (d + 2) * (d + 1) // 2 for d in range(1, TOP + 1)
    ]


@pytest.mark.parametrize("name", sorted(GENERATOR_DEGREES))
def test_catalog_invariant_counts(name):
    assert counts(catalog.load_algebra(name)) == free_counts(GENERATOR_DEGREES[name], TOP)


def test_gl3_invariant_counts():
    gl3 = LieAlgebra(gl_constants(3))
    want = free_counts((1, 2, 3), 7)
    assert want == [1, 2, 3, 4, 5, 7, 8]
    assert counts(gl3, 7) == want


def _benchmark_dense_gl2():
    """The four dense rational gl2 algebras the benchmark's lie workload checks."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [
        algebra_from_json(workloads.dense_gl2(workloads.DEFAULT_SEED, index))
        for index in range(workloads.LIE_DENSE_ALGEBRAS)
    ]


def test_dense_gl2_bases_keep_gl2_counts(tmp_path):
    algebras = _benchmark_dense_gl2()
    algebras.append(catalog.load_algebra(str(dense_gl2(tmp_path / "dense_gl2.json"))))
    assert len(algebras) == 5
    # every basis has denominators, so the integer table is really cleared
    assert all(alg.delta > 1 for alg in algebras)
    want = free_counts(GENERATOR_DEGREES["gl2"], TOP)
    for alg in algebras:
        assert counts(alg) == want, alg.delta


def _with_entry(alg, i, j, t, value):
    """alg with entry t of cleared_brackets[i][j] set to (k, value), or dropped if value is 0."""
    table = [[list(row) for row in plane] for plane in alg.cleared_brackets]
    k, _ = table[i][j][t]
    if value:
        table[i][j][t] = (k, value)
    else:
        del table[i][j][t]
    alg.cleared_brackets = tuple(tuple(tuple(row) for row in plane) for plane in table)
    return alg


def test_dropped_bracket_loses_the_casimir():
    # drop [h, e] = 2e from sl2's table: ad(h) no longer kills the Casimir,
    # and the sweep would go on with no invariant to check
    alg = catalog.sl2()
    e, h = alg.labels.index("e"), alg.labels.index("h")
    assert alg.cleared_brackets[h][e] == ((e, 2),)
    faulty = _with_entry(alg, h, e, 0, 0)
    assert counts(faulty) != free_counts(GENERATOR_DEGREES["sl2"], TOP)
    assert counts(faulty) == [0] * TOP


def test_every_single_entry_fault_in_gl2_changes_the_counts():
    base = catalog.gl2()
    want = free_counts(GENERATOR_DEGREES["gl2"], 2)
    faults = 0
    for i, plane in enumerate(base.cleared_brackets):
        for j, row in enumerate(plane):
            for t, (_, c) in enumerate(row):
                for value in (0, 2 * c):  # dropped, doubled
                    faulty = _with_entry(catalog.gl2(), i, j, t, value)
                    assert counts(faulty, 2) != want, (i, j, t, value)
                    faults += 1
    assert faults == 24
