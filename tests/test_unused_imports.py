"""Every name a module imports is referenced in that module.

An ast scan over src/duflo/*.py and tests/*.py: each name bound by an
import statement must occur as a Name node somewhere in the same module
(an attribute chain a.b.c counts as a use of a).  __future__ imports are
exempt, since they bind nothing that code reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "duflo").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_flags_only_unreferenced_names():
    src = "import os\nimport a.b\nfrom x import y, z as w\nos.sep\na.b.c\nprint(w)\n"
    assert unused_imports(src) == ["y"]


def test_no_unused_imports():
    found = {}
    for path in FILES:
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert not found, found
