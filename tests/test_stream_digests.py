"""Byte-identical report streams for fixed command lines.

Each command runs in-process and its stdout sha256 is compared with a
digest recorded at an earlier commit: the verify-hodge and series streams
before the per-c1 and per-model work and the truncated product were
restructured (the dim-5 stream and the weight-16 mukai text before the
Hodge signs came from a parity table and the Mukai sweep from basis
operators, with the dim cap raised to 5 in process to record it; the
dim-6 stream, with the cap lifted in process, before a Mukai pass was
certified on generators), the verify-lie streams before the diagram sweep moved from
the permutation sum to the multiset recursion, the weight-16 todd,
sqrt-todd and mukai streams before the series exponential became a
weight-graded recursion and the Todd root exp(log Todd / 2).  A change that is meant to
alter a stream must re-record its digest here and say why.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from test_cli import run_cli

DIGESTS = {
    "verify-hodge --dim 3 --seed 0 --cases 2":
        "922c281bd55ffa2be48bc0a55d88896bebf49884b0c3be001df3f42015440e9e",
    "verify-hodge --dim 4 --seed 0 --cases 1":
        "af8e6036eb124e564f14cebc1f9a8822eca079c8cc13ee338bced9438020847a",
    "verify-hodge --dim 5 --seed 0 --cases 1":
        "06bd600bd271a4c35738740be668b039ead9f9a402341560f50dd80ccf2e3a8a",
    "verify-hodge --dim 6 --seed 0 --cases 1":
        "059d38cf0fd513e13d8d7829b190fb5c305f3299384325ca39e9db60d396ba2e",
    "series todd --weight 13":
        "c62914f09193a14829d8038b5e1f18d1b32c1bea0151696c9e8599f83c4a027d",
    "series sqrt-todd --weight 13":
        "3d17be82d29cbae1f77c105a1b9672f2251343811f80b643e3e1c2e15e4de133",
    "series mukai --weight 13":
        "7ca0e50adcbb9a17a9f023303a82c283acff70f3c0f5e54bd9a6917a3ae15c96",
    "series ch --weight 16":
        "530f3879b3da34b0908756f13252740aff222ca9db9ffffef428a460bb5e81e2",
    "series todd --weight 16":
        "7188cd5292ad3462a83359503de1ef4d8815ffbb6947b128963a76e79a25eefb",
    "series sqrt-todd --weight 16":
        "750f75b6d68418b4c72b45c3fbc4d956f27a1cf646240650a4f75003d57661b9",
    "series mukai --weight 16 --format json":
        "63cc648eb7b28962db09cce12485820817b27650930c3bb19aedd0326d247598",
    "series mukai --weight 16":
        "3b1eaa00510a59015c08175334607ce96d2feff2f3d03b5522a25ad0c07b6b02",
}

# Run with VERIFIER_MAX_DEGREE=5; {dense} is the file dense_gl2 writes.
LIE_DIGESTS = {
    "verify-lie --algebra gl2 --rep all --max-degree 5":
        "b1d7c92d31680f2690e76718fa3b37b619df086183a55fee481015cbe7b07bf5",
    "verify-lie --algebra sl2 --rep all --max-degree 5":
        "2a50eb8ab78816964d0460f1215c50d22441ecd34ba4d87cd6f2b56b46536c27",
    "verify-lie --algebra heisenberg3 --rep all --max-degree 4":
        "35f5ac0ba54e1941f0cfb73065e4a70f0542b0577504c03ac5b4c2a2d690f1e2",
    "verify-lie --algebra abelian3 --rep all --max-degree 4":
        "343d2188c3d5279e894eba3c97b64129afd379c9ba338017ddee9f7591fa3853",
    "verify-lie --algebra {dense} --rep adjoint --max-degree 4":
        "a39486f91d5f0e7cb874552521b041f3613aec9c5219a9b03c8362fe65b3a645",
}


def _sha(out):
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_stream_digest(command):
    code, out, _ = run_cli(command.split())
    assert code == 0
    assert _sha(out) == DIGESTS[command]


def rational_inverse(p):
    """Inverse of an invertible matrix by Gauss-Jordan on Fractions."""
    n = len(p)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(p)]
    for col in range(n):
        piv = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        work[col] = [x / work[col][col] for x in work[col]]
        for r in range(n):
            if r != col:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def write_in_basis(path, c, p):
    """Write the bracket c in the basis y_a = sum_i p[i][a] x_i as a JSON algebra.

    c[i][j][k] is the x_k-coefficient of [x_i, x_j] and p is invertible;
    returns the JSON object written.
    """
    n = len(c)
    pinv = rational_inverse(p)
    brackets = []
    for a in range(n):
        for b in range(a + 1, n):
            x = [sum(p[i][a] * p[j][b] * c[i][j][k] for i in range(n) for j in range(n))
                 for k in range(n)]
            coeffs = [sum(pinv[l][k] * x[k] for k in range(n)) for l in range(n)]
            brackets.append({"i": a, "j": b, "coeffs": [str(q) for q in coeffs]})
    obj = {"dim": n, "brackets": brackets}
    path.write_text(json.dumps(obj))
    return obj


def dense_gl2(path):
    """gl2 in the basis y_a = sum_i P[i][a] E_i, written as a JSON algebra.

    P is a fixed dense rational matrix, so the structure constants in the
    new basis have non-integer entries; the inverse is taken here by
    Gauss-Jordan on Fractions, independently of duflo.kernels.
    """
    half, third = Fraction(1, 2), Fraction(1, 3)
    p = [[1, half, 0, -2 * third], [0, 1, third, 0], [2, 0, 1, half], [third, -1, 0, 1]]
    n = 4
    # [E_ab, E_cd] = d_bc E_ad - d_da E_cb over E11, E12, E21, E22
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (a, b), i in idx.items():
        for (cc, d), j in idx.items():
            if b == cc:
                c[i][j][idx[(a, d)]] += 1
            if d == a:
                c[i][j][idx[(cc, b)]] -= 1
    obj = write_in_basis(path, c, p)
    assert any(Fraction(q).denominator > 1 for br in obj["brackets"] for q in br["coeffs"])
    return path


@pytest.mark.parametrize("command", sorted(LIE_DIGESTS))
def test_verify_lie_stream_digest(command, monkeypatch, tmp_path):
    monkeypatch.setenv("VERIFIER_MAX_DEGREE", "5")
    dense = dense_gl2(tmp_path / "dense_gl2.json")
    code, out, _ = run_cli(command.format(dense=dense).split())
    assert code == 0
    assert _sha(out) == LIE_DIGESTS[command]


# Registers the generators given as JSON in argv[1], then prints the
# sha256 of the stdout of each command in argv[2:] and, under "gens",
# series._GENS after the last one.
FRESH_SCRIPT = """
import hashlib, io, json, sys
from contextlib import redirect_stdout
from duflo import series
from duflo.cli import main
for gen in json.loads(sys.argv[1]):
    series.GradedSeries(13, {(tuple(gen),): 1})
out = {}
for command in sys.argv[2:]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(command.split()) == 0
    out[command] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
out["gens"] = [list(g) for g in series._GENS]
print(json.dumps(out))
"""


def _fresh(gens, commands) -> dict:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run(
        [sys.executable, "-c", FRESH_SCRIPT, json.dumps(gens), *commands],
        capture_output=True, env=env, check=True,
    )
    return json.loads(run.stdout)


def test_series_streams_ignore_generator_order():
    # a high-weight f before any c, c13 before c2, an x from no command
    first = [["f9", 9], ["c13", 13], ["x", 1], ["c2", 2]]
    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "perfbench" / "reference.json").read_text())["hodge-series"]
    want = {
        "series mukai --weight 13 --format json": bench["series-mukai"],
        "series ch --weight 16 --format json": bench["series-ch"],
        "series todd --weight 13": DIGESTS["series todd --weight 13"],
        "series mukai --weight 13": DIGESTS["series mukai --weight 13"],
        "series ch --weight 16": DIGESTS["series ch --weight 16"],
    }
    got = _fresh(first, want)
    assert got.pop("gens")[:4] == first
    assert got == want


def test_todd_registers_only_chern_generators():
    # log Todd comes from scalar coefficients, so no auxiliary generator
    # takes an exponent field in the keys of later series
    got = _fresh([], ["series todd --weight 4"])
    assert got["gens"] == [[f"c{k}", k] for k in range(1, 5)]
