"""Importing duflo.cli loads no stdlib module that the commands do not use.

Each command runs as one short process, so its start-up is mostly this
import.  dataclasses alone pulls in inspect, ast, dis and tokenize.  The
import runs in a fresh `python -S -B`: without site, no .pth file preloads
typing, and no bytecode is written.  The modules it adds to sys.modules
are checked against UNWANTED.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
UNWANTED = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}

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
