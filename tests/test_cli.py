"""CLI surface: subcommands, report streams, exit codes, determinism."""

import functools
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from duflo import hodge
from duflo.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# -- series --------------------------------------------------------------------

def test_series_todd_golden():
    code, out, _ = run_cli(["series", "todd", "--weight", "2"])
    assert code == 0
    assert out.strip() == "1 + 1/2*c1 + 1/12*c1^2 + 1/12*c2"


def test_series_sqrt_todd_golden():
    code, out, _ = run_cli(["series", "sqrt-todd", "--weight", "1"])
    assert code == 0
    assert out.strip() == "1 + 1/4*c1"


def test_series_ch_rank1_weight0():
    code, out, _ = run_cli(["series", "ch", "--rank", "1", "--weight", "0"])
    assert code == 0
    assert out.strip() == "1"


def test_series_json_format():
    code, out, _ = run_cli(["series", "mukai", "--weight", "1", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "mukai" and obj["rank"] == 1
    assert {"coeff": "1/4", "monomial": "c1", "weight": 1} in obj["terms"]


def test_series_unknown_kind_usage_error():
    code, _, _ = run_cli(["series", "nope", "--weight", "1"])
    assert code == 2


def test_series_weight_out_of_range():
    code, _, _ = run_cli(["series", "todd", "--weight", "99"])
    assert code == 2


# -- verify-lie -------------------------------------------------------------------

def test_verify_lie_sl2_standard_passes():
    code, out, err = run_cli(
        ["verify-lie", "--algebra", "sl2", "--rep", "standard", "--max-degree", "4"]
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines and all(r["status"] == "pass" for r in lines)
    suites = {r["suite"] for r in lines}
    assert "lie-diagram" in suites and "lie-adjunction" in suites
    assert "0 fail" in err


def test_verify_lie_abelian_zero_rep():
    code, out, _ = run_cli(
        ["verify-lie", "--algebra", "abelian2", "--rep", "zero", "--max-degree", "3"]
    )
    assert code == 0
    assert all(json.loads(line)["status"] == "pass" for line in out.splitlines())


def test_verify_lie_unknown_algebra():
    code, _, err = run_cli(["verify-lie", "--algebra", "nope"])
    assert code == 2
    assert "unknown algebra" in err


@pytest.mark.parametrize(
    "argv, want",
    [
        (["--algebra", "nosuch"], "error: unknown algebra 'nosuch'; try one of "),
        (["--algebra", "sl2", "--rep", "spin"], "error: algebra sl2 has no representation 'spin'; "
         "available: ['adjoint', 'standard', 'sym3']\n"),
    ],
)
def test_verify_lie_unknown_name_is_input_error(argv, want):
    # an unknown catalog name is a ValueError, printed unquoted, as every input error is
    code, out, err = run_cli(["verify-lie", *argv, "--max-degree", "1"])
    assert code == 2 and out == ""
    assert err.startswith(want)


def test_verify_lie_bad_structure_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "dim": 3,
                "brackets": [
                    {"i": 0, "j": 1, "coeffs": ["0", "0", "1"]},
                    {"i": 0, "j": 2, "coeffs": ["1", "0", "0"]},
                    {"i": 1, "j": 2, "coeffs": ["0", "1", "0"]},
                ],
            }
        )
    )
    code, _, err = run_cli(["verify-lie", "--algebra", str(bad)])
    assert code == 2
    assert "Jacobi" in err and "(0,1,2)" in err


@pytest.mark.parametrize(
    "obj",
    [
        {"dim": 0},
        {"dim": -1},
        {"dim": 17},
        {"dim": True},
        {"dim": 2.7},
        {"dim": 2, "brackets": 5},
        {"dim": 2, "labels": [1, 2]},
        {"dim": 2, "labels": "ab"},
        {"dim": 2, "labels": ["a", "a"]},
        {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": ["1/0", "0"]}]},
        {"dim": 2, "brackets": [{"i": 0.9, "j": 1, "coeffs": ["0", "1"]}]},
        {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": [False, False, True]}]},
        {"dim": 2, "labels": ["a", "a*a"]},
        {"dim": 2, "labels": ["1", ""]},
        {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": ["x" * 1_000_000, "0"]}]},
        {"dim": 2, "brackets": [{"i": functools.reduce(lambda x, _: [x], range(500), 0), "j": 1,
                                 "coeffs": ["0", "1"]}]},
        {"dim": 2, "brackets": [{"i": int("9" * 4200), "j": 1, "coeffs": ["0", "1"]}]},
    ],
    ids=[
        "dim-zero",
        "dim-negative",
        "dim-over-cap",
        "dim-bool",
        "dim-float",
        "brackets-not-list",
        "labels-not-strings",
        "labels-string",
        "labels-repeated",
        "zero-denominator",
        "index-float",
        "coeffs-bool",
        "label-with-star",
        "label-empty",
        "coeff-million-chars",
        "index-500-deep",
        "index-4200-digits",
    ],
)
def test_verify_lie_malformed_json_is_input_error(tmp_path, obj):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run_cli(["verify-lie", "--algebra", str(bad), "--max-degree", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # the error quotes a bounded prefix of the offending value, not all of it
    assert len(err.encode()) < 1000


@pytest.mark.parametrize(
    "text",
    [
        "[" * 200_000 + "]" * 200_000,
        '{"dim": 3, "brackets": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ],
    ids=["array", "brackets"],
)
def test_verify_lie_deeply_nested_json_is_input_error(tmp_path, text):
    # json.load raises RecursionError past its nesting limit; once exit 3
    bad = tmp_path / "deep.json"
    bad.write_text(text)
    code, out, err = run_cli(["verify-lie", "--algebra", str(bad), "--max-degree", "1"])
    assert (code, out) == (2, "")
    assert err == f"error: JSON algebra {str(bad)!r} is nested too deeply\n"


def test_verify_lie_json_algebra_passes(tmp_path):
    good = tmp_path / "h3.json"
    good.write_text(
        json.dumps(
            {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "0", "1"]}]}
        )
    )
    code, out, _ = run_cli(
        ["verify-lie", "--algebra", str(good), "--rep", "adjoint", "--max-degree", "2"]
    )
    assert code == 0
    assert all(json.loads(line)["status"] == "pass" for line in out.splitlines())


def test_verify_lie_degree_cap_env(monkeypatch):
    code, _, _ = run_cli(["verify-lie", "--algebra", "sl2", "--max-degree", "5"])
    assert code == 2
    monkeypatch.setenv("VERIFIER_MAX_DEGREE", "5")
    code, out, _ = run_cli(
        ["verify-lie", "--algebra", "abelian2", "--rep", "zero", "--max-degree", "5"]
    )
    assert code == 0
    assert any("x1*x1*x1*x1*x1" in line for line in out.splitlines())


@pytest.mark.parametrize("env", ["abc", "-1"])
def test_verify_lie_rejects_a_bad_degree_cap(monkeypatch, env):
    monkeypatch.setenv("VERIFIER_MAX_DEGREE", env)
    code, out, err = run_cli(["verify-lie", "--algebra", "sl2", "--max-degree", "5"])
    assert (code, out) == (2, "")
    assert f"VERIFIER_MAX_DEGREE must be a nonnegative integer, got {env!r}" in err
    assert "between" not in err


# -- verify-hodge -----------------------------------------------------------------

def test_verify_hodge_small_sweep_passes():
    code, out, _ = run_cli(["verify-hodge", "--dim", "2", "--seed", "3", "--cases", "10"])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert all(r["status"] == "pass" for r in lines)
    suites = {r["suite"] for r in lines}
    assert suites == {
        "mukai-implication",
        "duflo-roundtrip",
        "first-order",
        "first-order-basis",
    }


def test_verify_hodge_dim1_trivial():
    code, out, _ = run_cli(["verify-hodge", "--dim", "1", "--seed", "0", "--cases", "1"])
    assert code == 0
    assert all(json.loads(line)["status"] == "pass" for line in out.splitlines())


def test_verify_hodge_dim_out_of_range():
    code, _, _ = run_cli(["verify-hodge", "--dim", "9"])
    assert code == 2


def test_verify_hodge_dim_7_is_over_cap():
    code, out, err = run_cli(["verify-hodge", "--dim", "7", "--cases", "1"])
    assert code == 2
    assert out == ""
    assert "--dim must be between 1 and 6" in err


def test_verify_hodge_seed_range():
    top = str(2**64 - 1)
    for seed in ("0", top):
        code, _, _ = run_cli(["verify-hodge", "--dim", "1", "--seed", seed, "--cases", "1"])
        assert code == 0
    # out-of-range seeds used to wrap onto another seed's stream
    for seed in ("-1", str(2**64)):
        code, _, err = run_cli(["verify-hodge", "--dim", "1", "--seed", seed, "--cases", "1"])
        assert code == 2
        assert "--seed" in err


def test_verify_hodge_deterministic_stream():
    args = ["verify-hodge", "--dim", "2", "--seed", "7", "--cases", "25"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()


def test_verify_hodge_pass_stream_is_seed_free_but_draws_read_the_seed(monkeypatch):
    # a passing line holds no drawn value (kernel_dim is 4^n - 2^n for
    # every c1), so two seeds give one stream
    argv = ["verify-hodge", "--dim", "2", "--cases", "5", "--seed"]
    code1, out1, _ = run_cli(argv + ["1"])
    code2, out2, _ = run_cli(argv + ["2"])
    assert code1 == code2 == 0
    assert out1 == out2
    # a witness shows the draws: each seed fails on its own alphas
    def report_alpha(model, alpha):
        return {"alpha": alpha.to_obj()}

    monkeypatch.setattr(hodge, "check_duflo_roundtrip", report_alpha)
    witnesses = []
    for seed in ("1", "2"):
        code, out, _ = run_cli(argv + [seed])
        assert code == 1
        lines = [json.loads(line) for line in out.splitlines()]
        witnesses.append([r["witness"] for r in lines if r["suite"] == "duflo-roundtrip"])
    assert len(witnesses[0]) == 5
    assert witnesses[0] != witnesses[1]


def test_no_command_is_usage_error():
    code, _, _ = run_cli([])
    assert code == 2


FLAGS = {
    "verify-lie": ["--algebra", "--rep", "--max-degree"],
    "verify-hodge": ["--dim", "--seed", "--cases"],
    "series": ["--weight", "--rank", "--format"],
}
LIE = ["verify-lie", "--algebra", "sl2", "--rep", "standard"]


@pytest.mark.parametrize(
    "argv, want",
    [
        # same exit code and stdout as the spelled-out command line
        (["series", "todd", "--weight=2"], ["series", "todd", "--weight", "2"]),
        (LIE + ["--max", "2"], LIE + ["--max-degree", "2"]),
        (LIE + ["--max-degree=2", "--rep=adjoint"], ["verify-lie", "--algebra", "sl2",
                                                     "--rep", "adjoint", "--max-degree", "2"]),
        (["verify-hodge", "--dim", "1", "--cases", "2", "--dim", "2", "--c=1"],
         ["verify-hodge", "--dim", "2", "--cases", "1"]),
        (["series", "--weight", "2", "todd"], ["series", "todd", "--weight", "2"]),
        (["series", "--weight", "-1", "--weight", "2", "ch"], ["series", "ch", "--weight", "2"]),
        # usage errors: exit 2, nothing on stdout
        (["series", "todd", "--weight", "2", "--"], 2),
        (["series", "todd", "--weight", "2", "--=json"], 2),
        (["series", "todd", "--weight"], 2),
        (LIE[:3] + ["--rep", "--bogus"], 2),
        (LIE[:3] + ["--rep", "-h"], 2),
        (["series", "todd", "--weight", "2", "--format", "xml"], 2),
        (["series", "todd", "--weight", "two"], 2),
        (["series", "todd", "ch", "--weight", "2"], 2),
        (["verify-hodge", "--cases", "1"], 2),
        (["series", "--weight", "2"], 2),
        (["series", "todd", "--weight", "2", "--help=1"], 2),
        (["series", "todd", "--weight", "2", "--bogus", "-h"], 2),
        (["series", "-h", "--=1"], 2),
        (["--"], 2),
        (["--bogus"], 2),
        (["verify"], 2),
        # help: exit 0, its usage line names every flag of the command
        (["-h"], "help"),
        (["--he"], "help"),
        (["verify-lie", "-h"], "help"),
        (["verify-hodge", "--help"], "help"),
        (["series", "todd", "--weight", "2", "--h"], "help"),
    ],
)
def test_argv_grammar(argv, want):
    code, out, err = run_cli(argv)
    if want == 2:
        assert code == 2 and out == ""
        prog = f"duflo {argv[0]}" if argv[0] in FLAGS else "duflo"
        assert err.splitlines()[-1].startswith(prog + ": error: ")
    elif want == "help":
        assert code == 0 and err == ""
        usage = out.splitlines()[0]
        assert usage.startswith("usage: duflo") and "-h" in usage
        for name in FLAGS.get(argv[0], FLAGS):  # top-level usage names each command
            assert name in usage
    else:
        assert code == 0
        assert (code, out) == run_cli(want)[:2]


@pytest.mark.parametrize(
    "module, name, argv",
    [
        ("duflo.series", "todd", ["series", "todd", "--weight", "2"]),
        ("duflo.kernels", "rref_int", ["verify-lie", "--algebra", "sl2", "--max-degree", "2"]),
        ("duflo.hodge", "wedge", ["verify-hodge", "--dim", "2", "--cases", "1"]),
    ],
)
def test_unexpected_exception_is_internal_error(monkeypatch, module, name, argv):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("planted\nfault")

    monkeypatch.setattr(sys.modules[module], name, broken)
    code, out, err = run_cli(argv)
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines() == ["internal error: ZeroDivisionError('planted\\nfault')"]
    # a usage error is found before the command runs, and is not internal
    assert run_cli(argv + ["--no-such-flag"])[0] == 2
