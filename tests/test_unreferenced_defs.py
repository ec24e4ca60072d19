"""Every function and method of the package is referenced in the package.

An ast scan over src/duflo/*.py: the name of each def must occur
somewhere in src/duflo outside that def's own body.  A function's name
counts as a Name, as an attribute (x.name), or as a name imported by
`from ... import`; a method's counts only as an attribute, since a local
variable that shares its name does not call it.  A def
that only tests call is test surface and belongs in the test that uses it.
Exempt are dunders, the functions the benchmark's span tracer wraps (the
SPANS table of perfbench/tracer.py, read as data, not imported) and the
names of ALLOWED, each with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "duflo").glob("*.py"))

ALLOWED = {
    "from_obj": "reads a class dump back, so a witness can be replayed",
}


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _references(tree) -> tuple[Counter, Counter]:
    """(references of any kind, attribute references) by name."""
    refs: Counter = Counter()
    attrs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
            attrs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs, attrs


def unreferenced_defs(sources: dict[str, str]) -> list[str]:
    """file:name of every def whose name is referenced only inside itself."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    refs: Counter = Counter()
    attrs: Counter = Counter()
    for tree in trees.values():
        r, a = _references(tree)
        refs += r
        attrs += a
    found = []
    for file, tree in trees.items():
        methods = {
            id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
            for f in c.body if isinstance(f, DEFS)
        }
        for node in ast.walk(tree):
            if isinstance(node, DEFS):
                kind = int(id(node) in methods)  # a method counts attributes only
                if (refs, attrs)[kind][node.name] == _references(node)[kind][node.name]:
                    found.append(f"{file}:{node.name}")
    return sorted(found)


def span_names() -> set[str]:
    """The function or method names in perfbench/tracer.py's SPANS."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    (table,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]
    )
    return {span.elts[2].value.rsplit(".", 1)[-1] for span in table.elts}


def test_scan_flags_only_unreferenced_names():
    src = {
        "a.py": "def used():\n    pass\n\ndef lonely(n):\n    return lonely(n - 1)\n",
        "b.py": "from a import used\n\nclass K:\n    def method(self):\n        return self.method\n",
        "c.py": "def called():\n    pass\n\nobj.called()\n",
        # a local variable named like a method does not reference it
        "d.py": "class Z:\n    def zero(self):\n        pass\n\nzero = 0\nprint(zero)\n",
        "e.py": "class W:\n    def kept(self):\n        pass\n\nW().kept()\n",
    }
    assert unreferenced_defs(src) == ["a.py:lonely", "b.py:method", "d.py:zero"]


def test_span_names_are_read():
    names = span_names()
    assert {"main", "symmetrize", "contract_T_on_Omega", "__mul__", "emit"} <= names


def test_every_def_is_referenced_in_the_package():
    sources = {path.name: path.read_text(encoding="utf-8") for path in FILES}
    unreferenced = unreferenced_defs(sources)
    names = {entry.split(":")[1] for entry in unreferenced}
    exempt = span_names() | set(ALLOWED) | {n for n in names if n.startswith("__") and n.endswith("__")}
    found = [entry for entry in unreferenced if entry.split(":")[1] not in exempt]
    assert not found, found
    # every allowlisted name is still defined and still unreferenced
    assert set(ALLOWED) <= names, set(ALLOWED) - names
