"""Every top-level function and class in src/mch is used somewhere.

A name counts as used when it is referenced outside its own definition
in any Python file under src/, tests/, demos/, perfbench/ or benchmarks/:
as a name, an attribute, a string listed in a module's `__all__`, or a
"module:name" string (the form the benchmark tracer uses to wrap call
sites).  Importing a name is not a use by itself: the importing file must
also reference it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCH = ("src", "tests", "demos", "perfbench", "benchmarks")


def _definitions() -> list:
    out = []
    for path in sorted((ROOT / "src" / "mch").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                out.append((path, node.name))
    return out


def _references(path: Path):
    """(name, enclosing top-level definition or None) per reference."""
    tree = ast.parse(path.read_text(), str(path))
    for top in tree.body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef,
                  ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                for elt in getattr(node.value, "elts", ()):
                    if isinstance(elt, ast.Constant):
                        yield elt.value, owner
            elif isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) and ":" in node.value:
                yield node.value.rsplit(":", 1)[1].split(".")[0], owner


def unused_names() -> list:
    used: dict = {}
    for d in SEARCH:
        for path in sorted((ROOT / d).rglob("*.py")):
            for name, owner in _references(path):
                used.setdefault(name, set()).add((path.resolve(), owner))
    dead = []
    for path, name in _definitions():
        sites = used.get(name, set()) - {(path.resolve(), name)}
        if not sites:
            dead.append(f"{path.name}:{name}")
    return dead


def test_no_unreferenced_top_level_definitions():
    assert unused_names() == []
