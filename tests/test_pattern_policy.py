"""Only `verify` decides which input patterns a functional check
simulates: no other module in src/mch names EXHAUSTIVE_PI_LIMIT, and no
module but `verify` (sampled patterns) and `gen` (random networks)
imports `random`.  Checked on the syntax tree, so comments and
docstrings that mention either do not count."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mch"


def _uses(path: Path):
    """("limit", line) per reference to EXHAUSTIVE_PI_LIMIT and
    ("random", line) per import of the random module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and node.id == "EXHAUSTIVE_PI_LIMIT" \
                or isinstance(node, ast.Attribute) \
                and node.attr == "EXHAUSTIVE_PI_LIMIT":
            yield "limit", node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield "random", node.lineno
            if any(a.name == "EXHAUSTIVE_PI_LIMIT" for a in node.names):
                yield "limit", node.lineno
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "random" for a in node.names):
                yield "random", node.lineno


def test_only_verify_owns_the_input_pattern_policy():
    allowed = {"limit": {"verify.py"}, "random": {"verify.py", "gen.py"}}
    bad = [f"{path.name}:{line}: {what}"
           for path in sorted(SRC.glob("*.py"))
           for what, line in _uses(path)
           if path.name not in allowed[what]]
    assert bad == []
