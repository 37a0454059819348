"""Text format for networks and choice networks (.mch files).

Node ids are implicit: 0 is the constant, 1..P are the PIs in order, and
each `gate` line defines the next id.  Literals are 2*node+neg, as in
AIGER.  A file with no `class` lines is a plain network.
"""

from . import network as nw
from .network import LogicNetwork, Signal
from .choices import ChoiceNetwork

HEADER = "mch v1"


class MchFileError(Exception):
    pass


def write_mch(cn: ChoiceNetwork, path) -> None:
    net = cn.base
    lines = [f"{HEADER} {net.tag}", f"pis {len(net.pis)}"]
    id_of = {0: 0}
    for i, n in enumerate(net.pis):
        id_of[n] = i + 1
    nxt = len(net.pis) + 1
    for g in net.gates():
        id_of[g] = nxt
        nxt += 1
        lits = " ".join(str(id_of[f.node] * 2 + (1 if f.neg else 0))
                        for f in net.fanins(g))
        lines.append(f"gate {net.kind(g)} {lits}")
    for s in net.outputs:
        lines.append(f"output {id_of[s.node] * 2 + (1 if s.neg else 0)}")
    for r in cn.class_reprs():
        ms = " ".join(f"{id_of[m]}:{1 if cn.phase[m] else 0}"
                      for m in cn.members(r))
        lines.append(f"class {id_of[r]} {ms}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_net(net: LogicNetwork, path) -> None:
    write_mch(ChoiceNetwork(net), path)


def read_mch(path) -> ChoiceNetwork:
    with open(path) as fh:
        lines = fh.read().split("\n")
    if not lines or not lines[0].startswith(HEADER):
        raise MchFileError(f"{path}: missing '{HEADER}' header")
    tag = lines[0][len(HEADER):].strip()
    if tag not in nw.ALLOWED_KINDS:
        raise MchFileError(f"{path}: unknown representation tag {tag!r}")
    net = LogicNetwork(tag)
    node_of = [0]
    classes = []

    def sig(lit_text: str, ln: int) -> Signal:
        try:
            lit = int(lit_text)
        except ValueError:
            raise MchFileError(f"line {ln}: bad literal {lit_text!r}")
        if lit // 2 >= len(node_of):
            raise MchFileError(f"line {ln}: literal {lit} not yet defined")
        s = Signal(node_of[lit // 2], False)
        return ~s if lit & 1 else s

    for ln, line in enumerate(lines[1:], 2):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "pis":
            for _ in range(int(tok[1])):
                node_of.append(net.add_pi().node)
        elif tok[0] == "gate":
            kind, fins = tok[1], tok[2:]
            if kind not in (nw.AND2, nw.XOR2, nw.MAJ3):
                raise MchFileError(f"line {ln}: unknown gate kind {kind!r}")
            arity = 3 if kind == nw.MAJ3 else 2
            if len(fins) != arity:
                raise MchFileError(f"line {ln}: {kind} needs {arity} fanins")
            try:
                s = net.add(kind, tuple(sig(t, ln) for t in fins))
            except nw.NetworkError as e:
                raise MchFileError(f"line {ln}: {e}") from None
            if s.neg:
                raise MchFileError(f"line {ln}: gate folds to a complement")
            node_of.append(s.node)
        elif tok[0] == "output":
            net.add_po(sig(tok[1], ln))
        elif tok[0] == "class":
            classes.append((ln, tok[1:]))
        else:
            raise MchFileError(f"line {ln}: unknown record {tok[0]!r}")

    cn = ChoiceNetwork(net)
    for ln, fields in classes:
        try:
            r = node_of[int(fields[0])]
            for item in fields[1:]:
                mtxt, ptxt = item.split(":")
                cn.add_choice(r, node_of[int(mtxt)], ptxt == "1")
        except (ValueError, IndexError):
            raise MchFileError(f"line {ln}: malformed class record")
    return cn
