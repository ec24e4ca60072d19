"""Command-line verifier.

Three subcommands:

  verify-lie    sweep the symmetrization diagram over a catalog algebra
  verify-hodge  sweep the contraction identities on bi-exterior models
  series        print Todd / Chern / Mukai series in canonical text or JSON

Each command's positional argument and flags are one entry of COMMANDS,
from which argv is parsed and usage and help are printed.  A flag takes
its value as `--flag value` or `--flag=value`, may be shortened to any
unique prefix, and, when repeated, keeps its last value; `series`' kind
may stand anywhere among the flags.  A separate value may start with '-'
only as a negative number.  `-h` or `--help`, before or after the
command, prints help to stdout and exits 0 when every other word parses.

Reports go to stdout as one JSON object per line (canonical, deterministic
for a fixed command line); a human summary goes to stderr.  Each check
hands the report sink only its witness (None when it holds); the sink
derives the status from the witness and times the whole sweep.  A bad
input file or name is a ValueError or OSError of the loader.
Exit codes: 0 all pass, 1 verification failure, 2 usage or input error,
3 internal error (an unexpected exception, reported as one line on
stderr).  main raises no SystemExit: on a usage error it prints
the command's usage line and `duflo <command>: error: ...` to stderr and
returns 2.
"""

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import catalog, hodge, series
from .hodge import FormClass, HodgeModel, PolyClass
from .pbw import (
    adjunction_check,
    check_invariant_annihilation,
    check_invariant_image,
    check_pbw_diagram,
    invariants_s,
    monomial_name,
    sym_basis,
)
from .report import ReportSink, canonical
from .rng import SplitMix64, derive

DEFAULT_DEGREE_CAP = 4
HODGE_DIM_CAP = 6
SEED_LIMIT = 1 << 64  # splitmix64 state width; larger seeds would alias
REQUIRED = object()  # the default of a flag that must be given


class UsageError(Exception):
    """A command line the command table rejects, or a flag value out of range."""


# ---------------------------------------------------------------------------
# verify-lie
# ---------------------------------------------------------------------------

def cmd_verify_lie(args) -> int:
    cap = DEFAULT_DEGREE_CAP
    env = os.environ.get("VERIFIER_MAX_DEGREE")
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = -1  # not an integer: rejected with the negative values
        if cap < 0:
            raise UsageError(f"VERIFIER_MAX_DEGREE must be a nonnegative integer, got {env!r}")
    if not (0 <= args.max_degree <= cap):
        raise UsageError(
            f"--max-degree must be between 0 and {cap} "
            f"(cap set by VERIFIER_MAX_DEGREE)"
        )
    try:
        alg = catalog.load_algebra(args.algebra)
        if args.rep == "all":
            reps = catalog.representations(alg)
        else:
            reps = {args.rep: catalog.load_representation(alg, args.rep)}
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    alg_name = alg.name or args.algebra
    sink = ReportSink()
    for rep_name in sorted(reps):
        rep = reps[rep_name]
        base = {"algebra": alg_name, "rep": rep_name}
        sink.add("lie-adjunction", base, adjunction_check(rep))
        for degree in range(1, args.max_degree + 1):
            for m in sym_basis(alg.dim, degree):
                inst = dict(base, monomial=monomial_name(alg, m))
                sink.add("lie-diagram", inst, check_pbw_diagram(rep, m))

    for degree in range(1, args.max_degree + 1):
        invs = invariants_s(alg, degree)
        for idx, s in enumerate(invs):
            inst = {"algebra": alg_name, "degree": degree, "index": idx}
            sink.add("lie-invariant-annihilation", inst, check_invariant_annihilation(alg, s))
            for rep_name in sorted(reps):
                witness = check_invariant_image(reps[rep_name], s)
                sink.add("lie-invariant-image", dict(inst, rep=rep_name), witness)
    return sink.emit()


# ---------------------------------------------------------------------------
# verify-hodge
# ---------------------------------------------------------------------------

def _draw(rng: SplitMix64, keys, sparse: bool, terms=None) -> dict:
    """Add to terms (a new dict when None) one rng.rational() per key, in
    order, keeping the nonzero ones; when sparse, a key is drawn only
    after rng.below(3) == 0.  Every seeded case draws through here."""
    terms = {} if terms is None else terms
    for key in keys:
        if not sparse or rng.below(3) == 0:
            q = rng.rational()
            if q:
                terms[key] = q
    return terms


def _random_11_terms(n: int, rng: SplitMix64) -> dict:
    return _draw(rng, hodge.term_keys_11(n), False)


def _random_poly(model: HodgeModel, rng: SplitMix64) -> PolyClass:
    return PolyClass(model, _draw(rng, hodge.term_keys(model.n), True))


def _random_todd_terms(n: int, rng: SplitMix64) -> dict:
    """Independent (p,p) data with constant term 1."""
    keys = [(a, b) for a, b in hodge.term_keys(n) if a and a.bit_count() == b.bit_count()]
    return _draw(rng, keys, True, {(0, 0): Fraction(1)})


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


def _indices(key) -> dict:
    """The 1-based indices of a (1,1) term (1 << i, 1 << j)."""
    a, b = key
    return {"a": a.bit_length(), "b": b.bit_length()}


def cmd_verify_hodge(args) -> int:
    if not (1 <= args.dim <= HODGE_DIM_CAP):
        raise UsageError(f"--dim must be between 1 and {HODGE_DIM_CAP}")
    if args.cases < 0:
        raise UsageError("--cases must be nonnegative")
    if not (0 <= args.seed < SEED_LIMIT):
        raise UsageError("--seed must be between 0 and 2**64 - 1")
    n = args.dim
    sink = ReportSink()
    plain = HodgeModel(n)

    # exhaustive basis sweep: every basis (1,1) direction as designated c1
    for key in hodge.term_keys_11(n):
        model = HodgeModel(n, {(0, 0): 1, key: Fraction(1, 2)})
        for alpha in hodge.poly_basis_11(model):
            (term,) = alpha.num
            inst = {"dim": n, "c1": _indices(key), "alpha": _indices(term)}
            sink.add("first-order-basis", inst, hodge.first_order_check(model, alpha))

    for case in range(args.cases):
        rng = SplitMix64(derive(args.seed, case))

        # 1. kernel sweep of the obstruction-to-Mukai implication (Todd = 1)
        c1 = FormClass(plain, _random_11_terms(n, rng))
        kernel_dim, witness = hodge.mukai_sweep(hodge.LineBundle(plain, c1))
        inst = {"dim": n, "case": case, "kernel_dim": kernel_dim}
        sink.add("mukai-implication", inst, witness)

        # 2. Duflo round trip on an independent random Todd datum
        model2 = HodgeModel(n, _random_todd_terms(n, rng))
        witness = hodge.check_duflo_roundtrip(model2, _random_poly(model2, rng))
        sink.add("duflo-roundtrip", {"dim": n, "case": case}, witness)

        # 3. first-order identities on a c1-generated Todd datum
        c1s = FormClass(plain, _random_11_terms(n, rng))
        model3 = HodgeModel(n, _todd_terms_from_c1(plain, c1s, rng))
        alpha3 = PolyClass(model3, _random_11_terms(n, rng))
        witness = hodge.first_order_check(model3, alpha3)
        sink.add("first-order", {"dim": n, "case": case}, witness)

    return sink.emit()


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def cmd_series(args) -> int:
    if not (0 <= args.weight <= series.MAX_WEIGHT):
        raise UsageError(f"--weight must be between 0 and {series.MAX_WEIGHT}")
    if args.rank < 0:
        raise UsageError("--rank must be nonnegative")
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
        print(canonical(obj))
    else:
        print(s.text())
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# name -> (handler, help, positional, flags).  The positional is
# (dest, choices, help) or None.  Each flag maps to (type, default or
# REQUIRED, choices or None, help); its dest is its name without the
# leading dashes, '-' read as '_'.  Parsing, usage and help read only this.
COMMANDS = {
    "verify-lie": (cmd_verify_lie, "sweep the symmetrization diagram over an algebra", None, {
        "--algebra": (str, REQUIRED, None, "abelianN, heisenberg3, sl2, gl2, or a JSON file"),
        "--rep": (str, "all", None, "representation name from the catalog, or 'all'"),
        "--max-degree": (int, DEFAULT_DEGREE_CAP, None, "highest degree swept, capped by VERIFIER_MAX_DEGREE"),
    }),
    "verify-hodge": (cmd_verify_hodge, "sweep contraction identities on bi-exterior models", None, {
        "--dim": (int, REQUIRED, None, f"rank n of the model, 1 to {HODGE_DIM_CAP}"),
        "--seed": (int, 0, None, "splitmix64 seed, 0 to 2**64 - 1"),
        "--cases": (int, 100, None, "number of seeded cases"),
    }),
    "series": (cmd_series, "print characteristic-class series", (
        "kind", ("todd", "sqrt-todd", "ch", "mukai"), "the series to print"
    ), {
        "--weight": (int, REQUIRED, None, f"truncation weight, 0 to {series.MAX_WEIGHT}"),
        "--rank": (int, 1, None, "rank of the bundle, for ch and mukai"),
        "--format": (str, "text", ("text", "json"), "output format"),
    }),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _metavar(dest: str, choices) -> str:
    return "{" + ",".join(choices) + "}" if choices else dest.upper()


def _usage(command) -> str:
    if command is None:
        return "usage: duflo [-h] " + _metavar("", COMMANDS) + " ..."
    _, _, positional, flags = COMMANDS[command]
    words = ["usage: duflo", command, "[-h]"]
    if positional:
        words.append(_metavar(*positional[:2]))
    for flag, (_, default, choices, _) in flags.items():
        word = f"{flag} {_metavar(_dest(flag), choices)}"
        words.append(word if default is REQUIRED else f"[{word}]")
    return " ".join(words)


def _help(command) -> str:
    """Usage, description and one row per word of the command, from the table."""
    if command is None:
        about = "Exact verifier for symmetrization and contraction identities."
        rows = [(name, entry[1]) for name, entry in COMMANDS.items()]
    else:
        _, about, positional, flags = COMMANDS[command]
        rows = [positional[::2]] if positional else []
        for flag, (_, default, choices, text) in flags.items():
            extra = "required" if default is REQUIRED else f"default: {default}"
            rows.append((f"{flag} {_metavar(_dest(flag), choices)}", f"{text} ({extra})"))
    rows.append(("-h, --help", "print this help and exit"))
    width = max(len(label) for label, _ in rows) + 2
    lines = [_usage(command), "", about, ""]
    lines += [f"  {label:<{width}}{text}" for label, text in rows]
    return "\n".join(lines)


def _flag(word: str, flags) -> tuple:
    """(flag, value after '=' or None) of a word starting with '--': the
    flag it names exactly or by a unique prefix, --help among them."""
    name, eq, value = word.partition("=")
    names = [*flags, "--help"]
    hits = [name] if name in names else [f for f in names if f.startswith(name)]
    if len(hits) != 1 or name == "--":
        raise UsageError(f"{'ambiguous' if len(hits) > 1 else 'unrecognized'} flag {name!r}")
    if hits[0] == "--help" and eq:
        raise UsageError("--help takes no value")
    return hits[0], value if eq else None


def _convert(name: str, word: str, kind, choices):
    try:
        value = kind(word)
    except ValueError:
        raise UsageError(f"{name}: invalid {kind.__name__} value {word!r}") from None
    if choices and value not in choices:
        raise UsageError(f"{name}: invalid choice {word!r} (choose from {', '.join(choices)})")
    return value


def _parse(command: str, words: list):
    """The values of one command's words, or None when they ask for help.

    Any word the table rejects raises UsageError, also beside -h.  A
    separate value may start with '-' only as a negative number, so a
    forgotten value never swallows the next flag.
    """
    _, _, positional, flags = COMMANDS[command]
    values = {}
    asked = False
    rest = iter(words)
    for word in rest:
        if word == "-h":
            asked = True
            continue
        if not word.startswith("--"):
            if not positional or positional[0] in values:
                raise UsageError(f"unrecognized argument {word!r}")
            values[positional[0]] = _convert(positional[0], word, str, positional[1])
            continue
        flag, value = _flag(word, flags)
        if flag == "--help":
            asked = True
            continue
        if value is None:
            value = next(rest, None)
            if value is None or value[:1] == "-" and not value[1:].isdecimal():
                raise UsageError(f"{flag} expects a value")
        kind, _, choices, _ = flags[flag]
        values[_dest(flag)] = _convert(flag, value, kind, choices)
    if asked:
        return None
    missing = [positional[0]] if positional and positional[0] not in values else []
    for flag, (_, default, _, _) in flags.items():
        if default is REQUIRED and _dest(flag) not in values:
            missing.append(flag)
        values.setdefault(_dest(flag), default)
    if missing:
        raise UsageError("missing " + ", ".join(missing))
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    words = sys.argv[1:] if argv is None else argv
    command = words[0] if words and words[0] in COMMANDS else None
    try:
        if command is None:
            # with no flags of its own, _flag names --help or raises
            if words and (words[0] == "-h" or words[0][:2] == "--" and _flag(words[0], ())):
                print(_help(None))
                return 0
            raise UsageError(
                f"invalid command {words[0]!r}" if words else "a command is required"
            )
        args = _parse(command, words[1:])
        if args is None:
            print(_help(command))
            return 0
        return COMMANDS[command][0](args)
    except UsageError as exc:
        print(_usage(command), file=sys.stderr)
        print(f"duflo{' ' + command if command else ''}: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the verifier, not of the input
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
