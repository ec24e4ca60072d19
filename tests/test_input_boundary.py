"""verify-lie at its input boundary: rational changes of basis and broken files.

A Lie algebra stays a Lie algebra in any basis, and a bracket that breaks
the Jacobi identity breaks it in every basis.  So random rational changes
of basis of the catalog gl2, sl2 and heisenberg3, with large coprime
denominators, must verify (exit 0), and the same changes applied to a
bracket that is not Lie, or a well-formed file broken in one place, must
be rejected as bad input (exit 2) without a traceback.  Examples are
derandomized and few, so the suite stays fast and repeatable.
"""

import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from duflo import catalog

from test_cli import run_cli
from test_stream_digests import write_in_basis

SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.large_base_example],
)

# primes near 10^6, 2^31 and 10^12, beside small denominators
DENOMINATORS = st.sampled_from([1, 2, 3, 5, 7, 999983, 2147483647, 999999999989])
ENTRIES = st.builds(Fraction, st.integers(-9, 9), DENOMINATORS)
PIVOTS = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), DENOMINATORS)

# [x0, x1] = x2, [x0, x2] = x0, [x1, x2] = x1 fails Jacobi on (0, 1, 2)
NOT_LIE = [[[0] * 3 for _ in range(3)] for _ in range(3)]
for _i, _j, _k in ((0, 1, 2), (0, 2, 0), (1, 2, 1)):
    NOT_LIE[_i][_j][_k], NOT_LIE[_j][_i][_k] = 1, -1


@st.composite
def changes_of_basis(draw, n):
    """A dense invertible rational n x n matrix L U.

    L is unit lower triangular and U upper triangular with nonzero
    diagonal, so every draw is invertible and the simplest is the identity.
    """
    low = [[draw(ENTRIES) if j < i else Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    up = [[draw(PIVOTS) if j == i else draw(ENTRIES) if j > i else 0 for j in range(n)]
          for i in range(n)]
    return [[sum(low[i][t] * up[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def _verify(path):
    return run_cli(["verify-lie", "--algebra", str(path), "--max-degree", "2"])


@st.composite
def lie_in_new_basis(draw):
    name = draw(st.sampled_from(["gl2", "sl2", "heisenberg3"]))
    alg = catalog.load_algebra(name)
    return alg.constants, draw(changes_of_basis(alg.dim))


@SETTINGS
@given(lie_in_new_basis())
def test_rational_change_of_basis_verifies(tmp_path, drawn):
    write_in_basis(tmp_path / "alg.json", *drawn)
    code, out, err = _verify(tmp_path / "alg.json")
    assert code == 0, err
    assert out and all(json.loads(line)["status"] == "pass" for line in out.splitlines())


@SETTINGS
@given(changes_of_basis(3))
def test_non_lie_bracket_is_input_error_in_every_basis(tmp_path, p):
    write_in_basis(tmp_path / "alg.json", NOT_LIE, p)
    code, out, err = _verify(tmp_path / "alg.json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Jacobi" in err and "Traceback" not in err


BREAKS = {
    "zero-denominator": lambda obj: obj["brackets"][0]["coeffs"].__setitem__(0, "1/0"),
    "float-coefficient": lambda obj: obj["brackets"][0]["coeffs"].__setitem__(0, 0.5),
    "word-coefficient": lambda obj: obj["brackets"][0]["coeffs"].__setitem__(0, "half"),
    "short-coefficients": lambda obj: obj["brackets"][0]["coeffs"].pop(),
    "index-out-of-range": lambda obj: obj["brackets"][0].__setitem__("j", obj["dim"]),
    "duplicate-pair": lambda obj: obj["brackets"].append(dict(obj["brackets"][0])),
    "missing-coefficients": lambda obj: obj["brackets"][0].pop("coeffs"),
    "dim-too-small": lambda obj: obj.__setitem__("dim", obj["dim"] - 1),
    "labels-too-few": lambda obj: obj.__setitem__("labels", ["a"]),
}


@SETTINGS
@given(lie_in_new_basis(), st.sampled_from(sorted(BREAKS) + ["truncated-text"]))
def test_broken_file_is_input_error(tmp_path, drawn, how):
    path = tmp_path / "alg.json"
    obj = write_in_basis(path, *drawn)
    if how == "truncated-text":
        path.write_text(path.read_text()[:-2])
    else:
        BREAKS[how](obj)
        path.write_text(json.dumps(obj))
    code, out, err = _verify(path)
    assert code == 2 and out == "", how
    assert err.startswith("error: ") and "Traceback" not in err, how
