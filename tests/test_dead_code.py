"""Every top-level function, class and constant in src/mch is used
somewhere, and so is every member of its classes.  A constant is a name a
module-level assignment binds; dunder names (`__all__`, `__init__`) are
exempt.

A name counts as used when it is referenced outside its own definition
in any Python file under src/, tests/, demos/, perfbench/ or benchmarks/:
as a name, an attribute, a string listed in a module's `__all__`, or a
"module:name" string (the form the benchmark tracer uses to wrap call
sites).  Importing a name is not a use by itself: the importing file must
also reference it.

A class member (a method, a property, or an annotated field of a
NamedTuple or dataclass) counts as used when it is read outside its own
definition, in the same files: as an attribute (a store alone, `x.f =
v`, is not a read, but `x.f += v` is), as a keyword argument, or as the
last part of a "module:Class.name" string.
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
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                out.extend((path, t.id) for t in targets
                           if isinstance(t, ast.Name) and not (
                               t.id.startswith("__") and t.id.endswith("__")))
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
                if not isinstance(node.ctx, ast.Store):  # binding, not use
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


def _members(tree: ast.Module) -> list:
    """(class, member) for every method, property and annotated field of
    the module's top-level classes; dunder names are exempt."""
    return [(top.name, name) for top in tree.body
            if isinstance(top, ast.ClassDef)
            for node in top.body
            for name in ([node.name] if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef))
                else [node.target.id] if isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name) else [])
            if not (name.startswith("__") and name.endswith("__"))]


def _member_reads(tree: ast.Module):
    """(name, (class, member) it is read in, or None) per attribute read,
    keyword argument and "module:Class.name" string."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(node, ast.ClassDef) and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, (node.name, child.name))
                continue
            if isinstance(child, ast.AugAssign) and isinstance(
                    child.target, ast.Attribute):
                yield child.target.attr, owner
            if isinstance(child, ast.Attribute) and not isinstance(
                    child.ctx, ast.Store):
                yield child.attr, owner
            elif isinstance(child, ast.keyword) and child.arg:
                yield child.arg, owner
            elif isinstance(child, ast.Constant) and \
                    isinstance(child.value, str) and ":" in child.value:
                yield child.value.rsplit(":", 1)[1].rsplit(".", 1)[-1], owner
            yield from walk(child, owner)
    return walk(tree, None)


def unread_members() -> list:
    read: dict = {}
    for d in SEARCH:
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for name, owner in _member_reads(tree):
                read.setdefault(name, set()).add((path.resolve(), owner))
    dead = []
    for path in sorted((ROOT / "src" / "mch").glob("*.py")):
        for cls, name in _members(ast.parse(path.read_text(), str(path))):
            if not read.get(name, set()) - {(path.resolve(), (cls, name))}:
                dead.append(f"{path.name}:{cls}.{name}")
    return dead


def test_no_unreferenced_top_level_definitions():
    assert unused_names() == []


def test_no_unread_class_members():
    assert unread_members() == []


def test_a_member_only_stored_or_read_in_itself_is_unread():
    tree = ast.parse("""
class P(NamedTuple):
    kept: int
    stored: int
    by_keyword: int

    def again(self):
        return self.again()

    @property
    def shown(self):
        return self.kept

def use(p):
    p.stored = 1
    return p.shown, P(by_keyword=2)
""")
    reads = {name for name, owner in _member_reads(tree)
             if owner is None or name != owner[1]}
    assert [m for _, m in _members(tree) if m not in reads] == \
        ["stored", "again"]
