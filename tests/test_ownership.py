"""Only `network.py` knows how a `LogicNetwork` stores its nodes: no other
module under src/mch reads or writes `._code`, `._fanin` or `._strash`,
as an attribute or through a `getattr`-style string.  The rest of the
program goes through `LogicNetwork` methods (the callers that walk every
node read `columns()`), so the node format can change in one file.  It is also the only module that spells a gate kind: the others
name `AND2`, `XOR2` and `MAJ3` (and read `ARITY`, `GATE_KINDS` and
`ALLOWED_KINDS`), so the kinds can become int codes in one file.  Tests
of the network's internals (test_strash.py, test_network.py) are outside
this check, which reads only the program."""

import ast
from pathlib import Path

from mch import network as nw

ROOT = Path(__file__).resolve().parents[1]
OWNER = "network.py"
PRIVATE = frozenset({"_code", "_fanin", "_strash"})


def private_accesses(source: str) -> list:
    """(line, name) of each access to the arena's private storage."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE:
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.Constant) and node.value in PRIVATE:
            out.append((node.lineno, node.value))
    return out


def test_the_check_sees_an_attribute_and_a_string():
    source = ("def f(net):\n"
              "    kind, lits = net._code[3], net._fanin\n"
              "    return getattr(net, '_strash'), net._strash_gate\n")
    assert sorted(private_accesses(source)) == [
        (2, "_code"), (2, "_fanin"), (3, "_strash")]


def test_only_network_py_touches_the_node_storage():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted((ROOT / "src" / "mch").glob("*.py"))
             if path.name != OWNER
             for line, name in private_accesses(path.read_text())]
    assert found == []


def gate_kind_literals(source: str) -> list:
    """(line, value) of each string constant that equals a gate kind."""
    return [(node.lineno, node.value) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant)
            and node.value in nw.GATE_KINDS]


def test_the_kind_check_sees_a_literal_but_not_a_name():
    source = ("def f(net, n):\n"
              "    return net.kind(n) == nw.MAJ3 or net.kind(n) == 'xor2'\n")
    assert gate_kind_literals(source) == [(2, nw.XOR2)]


def test_only_network_py_spells_a_gate_kind():
    found = [f"{path.name}:{line}: {value!r}"
             for path in sorted((ROOT / "src" / "mch").glob("*.py"))
             if path.name != OWNER
             for line, value in gate_kind_literals(path.read_text())]
    assert found == []
