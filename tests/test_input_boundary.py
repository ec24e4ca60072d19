"""The input boundary: algebra files, class dumps and command lines.

A Lie algebra stays a Lie algebra in any basis, and a bracket that breaks
the Jacobi identity breaks it in every basis.  So random rational changes
of basis of the catalog gl2, sl2 and heisenberg3, with large coprime
denominators, must verify (exit 0), and the same changes applied to a
bracket that is not Lie, or a well-formed file broken in one place, must
be rejected as bad input (exit 2) without a traceback.  A coefficient
that is not a p/q literal, such as 1e999999999 or 0.5, is refused as
such, at once, before any integer is built from it.  So is a catalog
name abelianN with N outside 1 to 16, however many digits N has, and
one whose N is not written in canonical ASCII digits.  A JSON algebra gets only the adjoint, whatever
its file is called, and a file whose basename is a catalog name is
refused, since its lines would claim that algebra's name; abelian0,
abelian17 and abelian123 are not catalog names.

A FormClass or PolyClass dump, loose or with one field broken, either
loads, and then survives a to_obj round trip, or raises BidegreeError or
ValueError.  Command lines of all three subcommands, well formed or with
one word replaced, dropped or added, exit 0, 1 or 2 with no traceback;
their sizes stay within dim 3, 2 cases, degree 3 and weight 6.  Examples
are derandomized and few, so the suite stays fast and repeatable.
"""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from duflo import catalog
from duflo.hodge import BidegreeError, FormClass, HodgeModel, PolyClass

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
    # JSON true is an int to Python, but no coefficient
    "bool-coefficient": lambda obj: obj["brackets"][0]["coeffs"].__setitem__(0, True),
    "word-coefficient": lambda obj: obj["brackets"][0]["coeffs"].__setitem__(0, "half"),
    # Fraction would read both, the first as a multi-gigabit integer
    "exponent-coefficient": lambda obj: obj["brackets"][0]["coeffs"].__setitem__(0, "1e999999999"),
    "decimal-coefficient": lambda obj: obj["brackets"][0]["coeffs"].__setitem__(0, "0.5"),
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


@pytest.mark.parametrize("how", ["exponent-coefficient", "decimal-coefficient"])
def test_non_literal_coefficient_is_input_error_at_once(tmp_path, how):
    path = tmp_path / "alg.json"
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    obj = write_in_basis(path, catalog.load_algebra("sl2").constants, identity)
    BREAKS[how](obj)
    path.write_text(json.dumps(obj))
    t0 = time.perf_counter()
    code, out, err = _verify(path)
    assert time.perf_counter() - t0 < 5.0
    assert code == 2 and out == ""
    # refused as a literal, not later as a bracket that breaks Jacobi
    assert err.startswith("error: malformed bracket entry") and "Traceback" not in err


@pytest.mark.parametrize("name", ["abelian0", "abelian17"])
def test_abelian_size_outside_cap_is_input_error(name):
    # abelianN allocates N^3 constants, so N is capped like a JSON algebra's dim
    t0 = time.perf_counter()
    code, out, err = run_cli(["verify-lie", "--algebra", name, "--max-degree", "1"])
    assert time.perf_counter() - t0 < 5.0
    assert code == 2 and out == ""
    assert err.startswith("error: abelianN needs N from 1 to 16") and "Traceback" not in err


@pytest.mark.parametrize("digits", [3, 5000])
def test_abelian_with_long_n_names_the_bound(digits):
    # int() refuses strings over 4,300 digits; the length is tested first
    name = "abelian" + "9" * digits
    code, out, err = run_cli(["verify-lie", "--algebra", name, "--max-degree", "1"])
    assert code == 2 and out == ""
    assert err == f"error: abelianN needs N from 1 to 16, got a {digits}-digit N\n"


@pytest.mark.parametrize("name", ["abelian\u0663", "abelian\u00b2"])
def test_abelian_with_non_ascii_digits_is_unknown_name(name):
    # str.isdigit accepts the Arabic-Indic three and the superscript two
    code, out, err = run_cli(["verify-lie", "--algebra", name, "--max-degree", "1"])
    assert code == 2 and out == ""
    assert err.startswith(f"error: unknown algebra {name!r}") and "Traceback" not in err


def test_abelian_with_leading_zero_is_unknown_name():
    # abelian01 once ran abelian1 and streamed a name other than the one given
    code, out, err = run_cli(["verify-lie", "--algebra", "abelian01", "--max-degree", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error: unknown algebra 'abelian01'") and "Traceback" not in err


# [x, y] = z: a valid algebra with no catalog representation of its own
XY_Z = {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "0", "1"]}]}


def test_json_algebra_named_like_abelian_gets_only_the_adjoint(tmp_path):
    path = tmp_path / "abelian_h.json"
    path.write_text(json.dumps(XY_Z))
    assert list(catalog.representations(catalog.load_algebra(str(path)))) == ["adjoint"]
    code, out, err = run_cli(
        ["verify-lie", "--algebra", str(path), "--rep", "adjoint", "--max-degree", "2"]
    )
    assert code == 0, err
    reps = {r["instance"].get("rep") for r in map(json.loads, out.splitlines())}
    assert reps == {"adjoint", None}  # None: the annihilation lines name no rep


@pytest.mark.parametrize("name", ["gl2", "abelian3", "abelian16"])
def test_json_algebra_named_like_catalog_is_input_error(tmp_path, name):
    # a 3-dim d/gl2 once got gl2's 2x2 standard representation and exited 3
    path = tmp_path / "d" / name
    path.parent.mkdir()
    path.write_text(json.dumps(XY_Z))
    code, out, err = run_cli(["verify-lie", "--algebra", str(path), "--max-degree", "1"])
    assert code == 2 and out == ""
    assert err.startswith(f"error: JSON algebra {str(path)!r} is named like the catalog")
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["abelian0", "abelian17", "abelian123"])
def test_json_algebra_named_like_no_catalog_abelian_runs(tmp_path, name):
    # only abelian1 to abelian16 are catalog names; these were once refused
    path = tmp_path / "d" / name
    path.parent.mkdir()
    path.write_text(json.dumps(XY_Z))
    code, out, err = run_cli(["verify-lie", "--algebra", str(path), "--max-degree", "1"])
    assert code == 0, err
    reps = {r["instance"].get("rep") for r in map(json.loads, out.splitlines())}
    assert reps == {"adjoint", None}


def test_abelian_cap_is_inclusive():
    assert catalog.load_algebra("abelian1").dim == 1
    assert catalog.load_algebra("abelian16").dim == 16


# -- class dumps ------------------------------------------------------------------

JUNK = st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-2, 4) | st.text(max_size=3)
COEFFS = st.sampled_from(["1", "-1", "2/3", "-7/5", "0", "1/0", "0.5", "half", ""]) | JUNK
INDICES = st.lists(st.integers(-1, 4) | JUNK, max_size=3) | JUNK
TERM = st.fixed_dictionaries({}, optional={"a": INDICES, "b": INDICES, "coeff": COEFFS}) | JUNK
GROUP = st.fixed_dictionaries(
    {},
    optional={
        "bidegree": st.lists(st.integers(0, 3) | JUNK, max_size=3) | JUNK,
        "terms": st.lists(TERM, max_size=3) | JUNK,
    },
) | JUNK
KEYS = st.tuples(st.integers(0, 7), st.integers(0, 7))
RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def class_dumps(draw):
    """A loose JSON structure, or a rank-3 to_obj dump with perhaps one field replaced."""
    if draw(st.booleans()):
        return draw(st.lists(GROUP, max_size=3) | JUNK)
    obj = FormClass(HodgeModel(3), draw(st.dictionaries(KEYS, RATIONALS, max_size=4))).to_obj()
    if obj and draw(st.booleans()):
        group = draw(st.sampled_from(obj))
        field = draw(st.sampled_from(["bidegree", "a", "b", "coeff"]))
        if field == "bidegree":
            group[field] = draw(st.lists(st.integers(0, 3) | JUNK, max_size=3) | JUNK)
        else:
            term = draw(st.sampled_from(group["terms"]))
            term[field] = draw(COEFFS if field == "coeff" else INDICES)
    return obj


@settings(SETTINGS, max_examples=60)
@given(st.integers(1, 3), class_dumps())
def test_class_dump_loads_or_is_input_error(n, obj):
    model = HodgeModel(n)
    for kind in (FormClass, PolyClass):
        try:
            got = kind.from_obj(model, obj)
        except (BidegreeError, ValueError):
            continue
        assert kind.from_obj(model, got.to_obj()) == got


# -- argv ---------------------------------------------------------------------------


def _numbers(lo, hi):
    return st.sampled_from([str(i) for i in range(lo, hi + 1)])


# flag -> (values within the size bounds, whether the flag is always given);
# a flag left out takes its default, so every size flag is always given
ARGV_OPTIONS = {
    "verify-lie": {
        "--algebra": (st.sampled_from(["gl2", "sl2", "heisenberg3", "abelian2"]), True),
        "--rep": (st.sampled_from(["all", "standard", "adjoint"]), False),
        "--max-degree": (_numbers(0, 3), True),
    },
    "verify-hodge": {
        "--dim": (_numbers(1, 3), True),
        "--seed": (st.sampled_from(["0", "7", str(2**64 - 1)]), False),
        "--cases": (_numbers(0, 2), True),
    },
    "series": {
        "--weight": (_numbers(0, 6), True),
        "--rank": (_numbers(0, 3), False),
        "--format": (st.sampled_from(["text", "json"]), False),
    },
}
SERIES_KINDS = st.sampled_from(["todd", "sqrt-todd", "ch", "mukai"])
# a word in place of any other, or put between two: none of them widens a size bound
STRAY = st.sampled_from(
    ["", "x", "1.5", "0x1", "-", "-1", "99", "nope", "--bogus", str(2**64),
     "--", "-h", "--rep=", "--ca"]
)


@st.composite
def argvs(draw, command):
    """A well-formed bounded command line, or one with a word replaced, dropped or added."""
    argv = [command] + ([draw(SERIES_KINDS)] if command == "series" else [])
    for flag, (values, always) in ARGV_OPTIONS[command].items():
        if always or draw(st.booleans()):
            argv += [flag, draw(values)]
    how = draw(st.sampled_from(["keep", "keep", "replace", "drop", "add"]))
    at = draw(st.integers(1, len(argv) - 1))
    if how == "replace":
        argv[at] = draw(STRAY)
    elif how == "drop":
        del argv[at]
    elif how == "add":
        argv.insert(at, draw(STRAY))
    return argv


@pytest.mark.parametrize("command", sorted(ARGV_OPTIONS))
@settings(SETTINGS, max_examples=20)
@given(data=st.data())
def test_argv_exits_cleanly(command, data):
    argv = data.draw(argvs(command))
    code, _, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err and "internal error" not in err, (argv, err)
