"""Importing duflo.cli loads no stdlib module that the commands do not use,
importing duflo.series loads no linear algebra, importing duflo.hodge
loads no Lie algebra code, and importing duflo.hodge, duflo.lie or
duflo.catalog loads no duflo.linalg, the d! oracle's linear algebra.

Each command runs as one short process, so its start-up is mostly this
import.  dataclasses alone pulls in inspect, ast, dis and tokenize;
argparse pulls in gettext, and locale on its first message.  The
import runs in a fresh `python -S -B`: without site, no .pth file preloads
typing, and no bytecode is written.  The modules it adds to sys.modules
are checked against UNWANTED.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
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
    assert sorted(loaded & {"duflo.linalg", "duflo.kernels"}) == []


def test_hodge_import_loads_no_lie_algebra():
    loaded = _loaded("import duflo.hodge")
    assert "duflo.hodge" in loaded
    assert sorted(loaded & {"duflo.lie", "duflo.pbw", "duflo.catalog", "duflo.series"}) == []


@pytest.mark.parametrize("module", ["duflo.hodge", "duflo.lie", "duflo.catalog"])
def test_import_loads_no_oracle_linear_algebra(module):
    loaded = _loaded(f"import {module}")
    assert module in loaded
    assert "duflo.linalg" not in loaded
