"""Workload definitions: the duflo command lines that make up one pass.

A pass is the list of commands a user would run to reach the workload's
verdicts; each command runs in its own fresh interpreter.  Every pass of a
run repeats the same commands, so each command's best time can be taken
over passes; commands are kept short (about a second or less each) so
that some pass of each falls between the slow spells that other tenants
cause on a shared host.  Seeded commands draw their inputs from the run
seed and spread them over several commands, so that one unusually cheap
or costly input moves the pass time little; commands without a seed have
the same inputs, and the same recorded stream digest, at every seed.
Inputs depend only on this file and the seed: the dense gl2 algebras come
from a sha256 counter stream with plain Fraction arithmetic, never from
duflo.rng or duflo.linalg, so a change to either cannot change what the
benchmark feeds the program.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Command:
    key: str  # stable id of the command within its workload
    argv: tuple
    env: dict = field(default_factory=dict)
    reports: bool = True  # stdout is a report stream (one status line each)
    seeded: bool = False  # inputs depend on the run seed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: object  # (seed, workdir, small) -> list[Command]


# ---------------------------------------------------------------------------
# lie: the catalog gl2 and sl2, and gl2 under random rational changes of basis
# ---------------------------------------------------------------------------

LIE_CATALOG_DEGREE = 5
LIE_DENSE_DEGREE = 3
LIE_DENSE_ALGEBRAS = 4


class _Draws:
    """Deterministic small integers from a sha256 counter stream."""

    def __init__(self, *key):
        self.key = repr(key)
        self.counter = 0
        self.pool = b""

    def below(self, n):
        if not self.pool:
            self.pool = hashlib.sha256(f"{self.key}:{self.counter}".encode()).digest()
            self.counter += 1
        byte, self.pool = self.pool[0], self.pool[1:]
        return byte % n


def _gl2_constants():
    """[E_ab, E_cd] = d_bc E_ad - d_da E_cb over the basis E11, E12, E21, E22."""
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    c = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for (a, b), i in idx.items():
        for (cc, d), j in idx.items():
            if b == cc:
                c[i][j][idx[(a, d)]] += 1
            if d == a:
                c[i][j][idx[(cc, b)]] -= 1
    return c


def rational_inverse(m):
    """Exact inverse by Gauss-Jordan, or None when m is singular."""
    n = len(m)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        p = work[col][col]
        work[col] = [x / p for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def dense_gl2(seed, index):
    """gl2 in the basis y_a = sum_i P[i][a] x_i for a random dense invertible P.

    Every entry of P is a nonzero rational with numerator in [-3, 3] and
    denominator in [1, 3], so the new structure constants are dense and
    carry growing numerators and denominators.
    """
    draws = _Draws("lie-dense", seed, index)
    while True:
        p = [
            [Fraction((draws.below(3) + 1) * (1 - 2 * draws.below(2)), draws.below(3) + 1)
             for _ in range(4)]
            for _ in range(4)
        ]
        pinv = rational_inverse(p)
        if pinv is not None:
            break
    c = _gl2_constants()
    brackets = []
    for a in range(4):
        for b in range(a + 1, 4):
            x = [Fraction(0)] * 4
            for i in range(4):
                for j in range(4):
                    w = p[i][a] * p[j][b]
                    if w:
                        for k in range(4):
                            if c[i][j][k]:
                                x[k] += w * c[i][j][k]
            coeffs = [sum(pinv[l][k] * x[k] for k in range(4)) for l in range(4)]
            brackets.append({"i": a, "j": b, "coeffs": [str(q) for q in coeffs]})
    return {"dim": 4, "labels": ["y1", "y2", "y3", "y4"], "brackets": brackets}


def _lie(seed, workdir, small):
    degree = 2 if small else LIE_CATALOG_DEGREE
    commands = [
        Command(
            f"verify-lie-{alg}",
            ("verify-lie", "--algebra", alg, "--rep", "all", "--max-degree", str(degree)),
            {"VERIFIER_MAX_DEGREE": str(degree)},
        )
        for alg in ("gl2", "sl2")
    ]
    degree = 2 if small else LIE_DENSE_DEGREE
    for index in range(LIE_DENSE_ALGEBRAS):
        path = os.path.join(workdir, f"gl2-dense-s{seed}-i{index}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dense_gl2(seed, index), fh, sort_keys=True)
        commands.append(
            Command(
                f"verify-lie-dense-{index}",
                ("verify-lie", "--algebra", path, "--rep", "adjoint", "--max-degree", str(degree)),
                {"VERIFIER_MAX_DEGREE": str(degree)},
                seeded=True,
            )
        )
    return commands


# ---------------------------------------------------------------------------
# hodge-series: the bi-exterior contraction calculus and the Todd series
# ---------------------------------------------------------------------------

HODGE_DIM = 3
HODGE_COMMANDS = 5
HODGE_CASES = 2


def _hodge(seed, small):
    return [
        Command(
            f"verify-hodge-{index}",
            ("verify-hodge", "--dim", str(2 if small else HODGE_DIM),
             "--seed", str(seed * HODGE_COMMANDS + index),
             "--cases", str(1 if small else HODGE_CASES)),
            seeded=True,
        )
        for index in range(HODGE_COMMANDS)
    ]


SERIES = (("todd", 13, "text"), ("sqrt-todd", 13, "text"), ("mukai", 13, "json"), ("ch", 16, "json"))


def _series(small):
    return [
        Command(
            f"series-{kind}",
            ("series", kind, "--weight", str(4 if small else weight), "--format", fmt),
            reports=False,
        )
        for kind, weight, fmt in SERIES
    ]


def _hodge_series(seed, workdir, small):
    return _hodge(seed, small) + _series(small)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lie",
            "verify-lie on catalog gl2/sl2, all reps, degree 5 (pbw symmetrize/theta/phi) "
            "and four seeded dense rational gl2 bases, degree 3 (Fraction growth, "
            "rref/kernel, JSON load)",
            _lie,
        ),
        Workload(
            "hodge-series",
            "verify-hodge --dim 3 on 10 seeded cases in five commands, and series "
            "todd/sqrt-todd/mukai at weight 13 and ch at 16: contractions, "
            "wedge, exp and GradedSeries products; pbw is bypassed",
            _hodge_series,
        ),
    )
}
