"""Importing duflo.cli loads no stdlib module that the commands do not use,
importing duflo.series loads no linear algebra, importing duflo.hodge
loads no Lie algebra code, importing duflo.hodge, duflo.lie or
duflo.catalog loads none of the tests' oracle, and no module of duflo
holds it.

Each command runs as one short process, so its start-up is mostly this
import.  dataclasses alone pulls in inspect, ast, dis and tokenize;
argparse pulls in gettext, and locale on its first message.  The
import runs in a fresh `python -S -B`: without site, no .pth file preloads
typing, and no bytecode is written.  The modules it adds to sys.modules
are checked against UNWANTED.

The reference routes the tests compare the commands against live in
tests/pbw_oracle.py, and no command runs them, so no command compiles
them either.  An ast scan over src/duflo/*.py checks that no module
defines or assigns an oracle name at its top level, imports one, or
imports from the tests.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent
UNWANTED = {
    "dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
    "argparse", "gettext", "locale",
}

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
{}
print(*sorted(set(sys.modules) - before))
"""


def _loaded(statement: str) -> set:
    """The modules that statement adds to sys.modules in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-S", "-B", "-c", PROBE.format(statement), str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    )
    return set(out.stdout.split())


def test_cli_import_loads_no_unused_stdlib_module():
    loaded = _loaded("import duflo.cli")
    assert "duflo.cli" in loaded
    assert sorted(loaded & UNWANTED) == []


def test_guard_flags_a_dataclasses_import():
    loaded = _loaded("import duflo.cli, dataclasses")
    assert "dataclasses" in loaded & UNWANTED


def test_series_import_loads_no_linear_algebra():
    loaded = _loaded("import duflo.series")
    assert "duflo.series" in loaded
    assert "duflo.kernels" not in loaded


def test_hodge_import_loads_no_lie_algebra():
    loaded = _loaded("import duflo.hodge")
    assert "duflo.hodge" in loaded
    assert sorted(loaded & {"duflo.lie", "duflo.pbw", "duflo.catalog", "duflo.series"}) == []


@pytest.mark.parametrize("module", ["duflo.hodge", "duflo.lie", "duflo.catalog"])
def test_import_loads_no_oracle_linear_algebra(module):
    loaded = _loaded(f"import {module}")
    assert module in loaded
    assert sorted(loaded & {"duflo.linalg", "pbw_oracle", "tests.pbw_oracle"}) == []


# the names that left src/duflo without a copy in tests/pbw_oracle.py
DELETED = {"Matrix", "ShapeMismatch", "kernel", "matmul_pairs", "mukai_line", "duflo_inverse"}


def oracle_names() -> set:
    """The classes and functions of tests/pbw_oracle.py, the deleted names, and linalg."""
    tree = ast.parse((TESTS / "pbw_oracle.py").read_text(encoding="utf-8"))
    defined = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    return defined | DELETED | {"linalg"}


def oracle_hits(sources: dict[str, str]) -> list[str]:
    """file:name for each oracle name a module defines or assigns at its top
    level or imports, and for each tests module it imports from."""
    names = oracle_names()
    tests = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    found = set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = {t.id for tg in targets for t in ast.walk(tg) if isinstance(t, ast.Name)}
            else:
                continue
            found |= {f"{file}:{n}" for n in bound & names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = {part for a in node.names for part in a.name.split(".")}
            elif isinstance(node, ast.ImportFrom):
                bound = set((node.module or "").split(".")) | {a.name for a in node.names}
            else:
                continue
            found |= {f"{file}:{n}" for n in bound & (names | tests)}
    return sorted(found)


def _sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in (SRC / "duflo").glob("*.py")}


def test_src_holds_no_oracle_name():
    assert oracle_hits(_sources()) == []


def test_oracle_scan_flags_a_planted_symmetrize():
    sources = _sources()
    sources["pbw.py"] += "\n\ndef symmetrize(s):\n    return s\n\nfrom .lie import Matrix\n"
    sources["hodge.py"] += "\nfrom .linalg import kernel\n"
    sources["cli.py"] += "\nfrom tests.pbw_oracle import theta as route\nimport test_pbw\n"
    sources["lie.py"] += "\nmat_mul: object = None\n\n\nclass Matrix:\n    pass\n"
    assert oracle_hits(sources) == [
        "cli.py:pbw_oracle", "cli.py:test_pbw", "cli.py:tests", "cli.py:theta",
        "hodge.py:kernel", "hodge.py:linalg", "lie.py:Matrix", "lie.py:mat_mul",
        "pbw.py:Matrix", "pbw.py:symmetrize",
    ]
