"""Command-line verifier.

Three subcommands:

  verify-lie    sweep the symmetrization diagram over a catalog algebra
  verify-hodge  sweep the contraction identities on bi-exterior models
  series        print Todd / Chern / Mukai series in canonical text or JSON

Reports go to stdout as one JSON object per line (canonical, deterministic
for a fixed command line); a human summary goes to stderr.  Each check
hands the report sink only its witness (None when it holds) and the
perf_counter reading taken before it; the sink derives the status from
the witness.  Exit codes: 0 all pass, 1 verification failure, 2 usage or
input error, 3 internal error (an unexpected exception, reported as one
line on stderr).
"""

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import catalog, hodge, series
from .hodge import FormClass, HodgeModel, PolyClass
from .lie import AntisymmetryViolation, BracketMismatch, JacobiViolation
from .pbw import (
    adjunction_check,
    check_invariant_image,
    check_pbw_diagram,
    derivation_apply,
    invariants_s,
    monomial_name,
    sym_basis,
)
from .report import ReportSink
from .rng import SplitMix64, derive

DEFAULT_DEGREE_CAP = 4
HODGE_DIM_CAP = 5
SEED_LIMIT = 1 << 64  # splitmix64 state width; larger seeds would alias


# ---------------------------------------------------------------------------
# verify-lie
# ---------------------------------------------------------------------------

def cmd_verify_lie(args, parser) -> int:
    cap = DEFAULT_DEGREE_CAP
    env = os.environ.get("VERIFIER_MAX_DEGREE")
    if env:
        try:
            cap = int(env)
        except ValueError:
            parser.error(f"VERIFIER_MAX_DEGREE must be an integer, got {env!r}")
    if not (0 <= args.max_degree <= cap):
        parser.error(
            f"--max-degree must be between 0 and {cap} "
            f"(cap set by VERIFIER_MAX_DEGREE)"
        )
    try:
        alg = catalog.load_algebra(args.algebra)
    except (
        KeyError,
        ValueError,
        OSError,
        json.JSONDecodeError,
        AntisymmetryViolation,
        JacobiViolation,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.rep == "all":
            reps = catalog.representations(alg)
        else:
            reps = {args.rep: catalog.load_representation(alg, args.rep)}
    except (KeyError, BracketMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    alg_name = alg.name or args.algebra
    sink = ReportSink()
    for rep_name in sorted(reps):
        rep = reps[rep_name]
        base = {"algebra": alg_name, "rep": rep_name}
        t0 = time.perf_counter()
        sink.add("lie-adjunction", base, adjunction_check(rep), t0)
        for degree in range(1, args.max_degree + 1):
            for m in sym_basis(alg.dim, degree):
                inst = dict(base, monomial=monomial_name(alg, m))
                t0 = time.perf_counter()
                sink.add("lie-diagram", inst, check_pbw_diagram(rep, m), t0)

    for degree in range(1, args.max_degree + 1):
        invs = invariants_s(alg, degree)
        for idx, s in enumerate(invs):
            inst = {"algebra": alg_name, "degree": degree, "index": idx}
            t0 = time.perf_counter()
            killed = all(
                derivation_apply(alg, i, s).is_zero() for i in range(alg.dim)
            )
            witness = None if killed else {"element": s.describe(alg)}
            sink.add("lie-invariant-annihilation", inst, witness, t0)
            for rep_name in sorted(reps):
                t0 = time.perf_counter()
                witness = check_invariant_image(reps[rep_name], s)
                sink.add("lie-invariant-image", dict(inst, rep=rep_name), witness, t0)
    return sink.emit()


# ---------------------------------------------------------------------------
# verify-hodge
# ---------------------------------------------------------------------------

def _random_11_terms(n: int, rng: SplitMix64) -> dict:
    terms = {}
    for i in range(n):
        for j in range(n):
            q = rng.rational()
            if q:
                terms[(1 << i, 1 << j)] = q
    return terms


def _random_poly(model: HodgeModel, rng: SplitMix64) -> PolyClass:
    size = 1 << model.n
    terms = {}
    for a in range(size):
        for b in range(size):
            if rng.below(3) == 0:
                q = rng.rational()
                if q:
                    terms[(a, b)] = q
    return PolyClass(model, terms)


def _random_todd_terms(n: int, rng: SplitMix64) -> dict:
    """Independent (p,p) data with constant term 1."""
    size = 1 << n
    terms = {(0, 0): Fraction(1)}
    for a in range(1, size):
        for b in range(1, size):
            if a.bit_count() == b.bit_count() and rng.below(3) == 0:
                q = rng.rational()
                if q:
                    terms[(a, b)] = q
    return terms


def _todd_terms_from_c1(model: HodgeModel, c1: FormClass, rng: SplitMix64) -> dict:
    """Todd-like datum generated by c1: 1 + c1/2 + higher wedge powers."""
    acc = FormClass.one(model) + c1.scale(Fraction(1, 2))
    power = c1
    for _ in range(2, model.n + 1):
        power = hodge.wedge(power, c1)
        if power.is_zero():
            break
        acc = acc + power.scale(rng.rational())
    return dict(acc.terms)


def cmd_verify_hodge(args, parser) -> int:
    if not (1 <= args.dim <= HODGE_DIM_CAP):
        parser.error(f"--dim must be between 1 and {HODGE_DIM_CAP}")
    if args.cases < 0:
        parser.error("--cases must be nonnegative")
    if not (0 <= args.seed < SEED_LIMIT):
        parser.error("--seed must be between 0 and 2**64 - 1")
    n = args.dim
    sink = ReportSink()
    plain = HodgeModel(n)

    # exhaustive basis sweep: every basis (1,1) direction as designated c1
    for i in range(n):
        for j in range(n):
            key = (1 << i, 1 << j)
            model = HodgeModel(n, {(0, 0): 1, key: Fraction(1, 2)})
            c1_desc = {"a": i + 1, "b": j + 1}
            for alpha in hodge.poly_basis_11(model):
                ((ak, bk),) = alpha.num
                inst = {
                    "dim": n,
                    "c1": c1_desc,
                    "alpha": {"a": ak.bit_length(), "b": bk.bit_length()},
                }
                t0 = time.perf_counter()
                sink.add("first-order-basis", inst, hodge.first_order_check(model, alpha), t0)

    for case in range(args.cases):
        rng = SplitMix64(derive(args.seed, case))

        # 1. kernel sweep of the obstruction-to-Mukai implication (Todd = 1)
        t0 = time.perf_counter()
        c1 = FormClass(plain, _random_11_terms(n, rng))
        kernel_dim, witness = hodge.mukai_sweep(hodge.LineBundle(plain, c1))
        inst = {"dim": n, "case": case, "kernel_dim": kernel_dim}
        sink.add("mukai-implication", inst, witness, t0)

        # 2. Duflo round trip on an independent random Todd datum
        t0 = time.perf_counter()
        model2 = HodgeModel(n, _random_todd_terms(n, rng))
        witness = hodge.check_duflo_roundtrip(model2, _random_poly(model2, rng))
        sink.add("duflo-roundtrip", {"dim": n, "case": case}, witness, t0)

        # 3. first-order identities on a c1-generated Todd datum
        t0 = time.perf_counter()
        scratch = HodgeModel(n)
        c1s = FormClass(scratch, _random_11_terms(n, rng))
        model3 = HodgeModel(n, _todd_terms_from_c1(scratch, c1s, rng))
        alpha3 = PolyClass(model3, _random_11_terms(n, rng))
        witness = hodge.first_order_check(model3, alpha3)
        sink.add("first-order", {"dim": n, "case": case}, witness, t0)

    return sink.emit()


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def cmd_series(args, parser) -> int:
    if not (0 <= args.weight <= series.MAX_WEIGHT):
        parser.error(f"--weight must be between 0 and {series.MAX_WEIGHT}")
    if args.rank < 0:
        parser.error("--rank must be nonnegative")
    if args.kind == "todd":
        s = series.todd(args.weight)
    elif args.kind == "sqrt-todd":
        s = series.sqrt_todd(args.weight)
    elif args.kind == "ch":
        s = series.chern_character(args.rank, args.weight)
    else:
        s = series.mukai_vector(args.rank, args.weight)
    if args.format == "json":
        obj = {"kind": args.kind, "weight": args.weight, "terms": s.to_obj()}
        if args.kind in ("ch", "mukai"):
            obj["rank"] = args.rank
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        print(s.text())
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duflo",
        description="Exact verifier for symmetrization and contraction identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lie = sub.add_parser(
        "verify-lie", help="sweep the symmetrization diagram over an algebra"
    )
    p_lie.add_argument(
        "--algebra",
        required=True,
        help="catalog name (abelianN, heisenberg3, sl2, gl2) or JSON file",
    )
    p_lie.add_argument(
        "--rep",
        default="all",
        help="representation name from the catalog, or 'all' (default)",
    )
    p_lie.add_argument("--max-degree", type=int, default=4)
    p_lie.set_defaults(func=cmd_verify_lie)

    p_hodge = sub.add_parser(
        "verify-hodge", help="sweep contraction identities on bi-exterior models"
    )
    p_hodge.add_argument("--dim", type=int, required=True)
    p_hodge.add_argument("--seed", type=int, default=0)
    p_hodge.add_argument("--cases", type=int, default=100)
    p_hodge.set_defaults(func=cmd_verify_hodge)

    p_series = sub.add_parser("series", help="print characteristic-class series")
    p_series.add_argument("kind", choices=["todd", "sqrt-todd", "ch", "mukai"])
    p_series.add_argument("--weight", type=int, required=True)
    p_series.add_argument("--rank", type=int, default=1)
    p_series.add_argument("--format", choices=["text", "json"], default="text")
    p_series.set_defaults(func=cmd_series)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except Exception as exc:  # a fault of the verifier, not of the input
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
