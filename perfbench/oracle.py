"""Independent correctness oracle and QoR measures for the benchmark.

Nothing here asks the program for a verdict: every check evaluates the
input AIGER text and the program's outputs directly, over every input
pattern (all benchmark inputs have at most 16 PIs), with Python integers as
bit-parallel words.  Patterns are taken in chunks of at most 2^12, so a
large choice network never holds 2^16-bit words for all of its nodes.
"""

from __future__ import annotations

from typing import Iterator

CHUNK_VARS = 12
MAX_PIS = 16


class OracleError(Exception):
    """The program's output is wrong or malformed."""


def _var_word(i: int, width: int) -> int:
    """Word whose bit m is bit i of m, for m < width."""
    period = 1 << i
    word = ((1 << period) - 1) << period
    span = 2 * period
    while span < width:
        word |= word << span
        span *= 2
    return word & ((1 << width) - 1)


def input_chunks(n_pis: int) -> Iterator[tuple[list, int]]:
    """Yield (pi_words, mask) covering every input pattern exactly once."""
    if n_pis > MAX_PIS:
        raise OracleError(f"{n_pis} PIs is too many for exhaustive checking")
    low = min(n_pis, CHUNK_VARS)
    width = 1 << low
    mask = (1 << width) - 1
    base = [_var_word(i, width) for i in range(low)]
    for hi in range(1 << (n_pis - low)):
        high = [mask if (hi >> j) & 1 else 0 for j in range(n_pis - low)]
        yield base + high, mask


def eval_table(bits: int, ins: list, mask: int) -> int:
    """Word of the function whose truth table is `bits` over inputs `ins`
    (input j is minterm bit j), by Shannon expansion on the last input."""
    n = len(ins)
    bits &= (1 << (1 << n)) - 1
    if n == 0:
        return mask if bits & 1 else 0
    half = 1 << (n - 1)
    lo = bits & ((1 << half) - 1)
    hi = bits >> half
    rest = ins[:-1]
    if lo == hi:
        return eval_table(lo, rest, mask)
    x = ins[-1]
    return (x & eval_table(hi, rest, mask)) | \
        (~x & mask & eval_table(lo, rest, mask))


# -- AIGER input -----------------------------------------------------------


class Aig:
    """An ASCII AIGER file, parsed without the program."""

    def __init__(self, text: str):
        rows = [r.split() for r in text.split("\n")]
        head = rows[0]
        if len(head) != 6 or head[0] != "aag" or head[3] != "0":
            raise OracleError(f"unsupported AIGER header {' '.join(head)!r}")
        _, i, _, o, a = (int(x) for x in head[1:])
        self.inputs = [int(r[0]) // 2 for r in rows[1:1 + i]]
        self.outputs = [int(r[0]) for r in rows[1 + i:1 + i + o]]
        self.ands = [tuple(int(x) for x in r[:3])
                     for r in rows[1 + i + o:1 + i + o + a]]

    def output_words(self, pi_words: list, mask: int) -> list:
        val = {0: 0}
        for var, w in zip(self.inputs, pi_words):
            val[var] = w

        def lit(x: int) -> int:
            return val[x >> 1] ^ (mask if x & 1 else 0)

        for lhs, r0, r1 in self.ands:
            val[lhs >> 1] = lit(r0) & lit(r1)
        return [lit(x) for x in self.outputs]


def reference(aig: Aig) -> list:
    """Output words of the input AIG, one list per input chunk."""
    return [aig.output_words(w, m) for w, m in input_chunks(len(aig.inputs))]


# -- mapped LUT and cell netlists ------------------------------------------


def check_netlist(m, ref: list, n_pis: int, n_pos: int, cells=None) -> None:
    """Evaluate a MappedNetlist from each Instance's tt.bits and ins.

    With `cells` (name -> library Cell), each instance must carry its
    library cell's function.
    """
    if m.n_pis != n_pis or len(m.outputs) != n_pos:
        raise OracleError(f"netlist interface {m.n_pis}/{len(m.outputs)} "
                          f"!= {n_pis}/{n_pos}")
    for inst in m.instances:
        if len(inst.ins) != inst.tt.var_count:
            raise OracleError(f"instance {inst.out}: {len(inst.ins)} inputs "
                              f"for a {inst.tt.var_count}-input table")
        if cells is not None:
            cell = cells.get(inst.cell)
            span = (1 << (1 << inst.tt.var_count)) - 1
            if cell is None or cell.tt.var_count != inst.tt.var_count or \
                    (cell.tt.bits ^ inst.tt.bits) & span:
                raise OracleError(f"instance {inst.out}: {inst.cell!r} is "
                                  f"not a library cell with that function")
    for (pi_words, mask), want in zip(input_chunks(n_pis), ref):
        val = dict(enumerate(pi_words))
        for inst in m.instances:
            if inst.out in val:
                raise OracleError(f"id {inst.out} defined twice")
            try:
                ins = [val[i] for i in inst.ins]
            except KeyError as e:
                raise OracleError(f"instance {inst.out} reads undefined "
                                  f"id {e}") from None
            val[inst.out] = eval_table(inst.tt.bits, ins, mask)
        try:
            got = [val[i] ^ (mask if neg else 0) for i, neg in m.outputs]
        except KeyError as e:
            raise OracleError(f"output reads undefined id {e}") from None
        if got != want:
            raise OracleError("netlist differs from the input AIG")


def lut_qor(m) -> tuple:
    """(LUT count, LUT depth) of a LUT netlist."""
    level = {}
    for inst in m.instances:
        level[inst.out] = 1 + max((level.get(i, 0) for i in inst.ins),
                                  default=-1)
    depth = max((level.get(i, 0) for i, _ in m.outputs), default=0)
    return float(len(m.instances)), float(depth)


def cell_qor(m, cells) -> tuple:
    """(total area, arrival time) of a cell netlist, from the library."""
    arrival = {}
    area = 0.0
    for inst in m.instances:
        cell = cells[inst.cell]
        area += cell.area
        arrival[inst.out] = max((arrival.get(i, 0.0) + d
                                 for i, d in zip(inst.ins, cell.pin_delays)),
                                default=0.0)
    delay = max((arrival.get(i, 0.0) for i, _ in m.outputs), default=0.0)
    return area, delay


# -- graph-mapped networks -------------------------------------------------


def check_network(net, ref: list, n_pis: int, n_pos: int, kinds) -> None:
    """Evaluate a LogicNetwork from each node's kind and fanins.

    `kinds` maps the program's kind names to "const", "pi", "and", "xor"
    and "maj".
    """
    if len(net.pis) != n_pis or len(net.outputs) != n_pos:
        raise OracleError("network interface differs from the input")
    plan = []
    for n in range(len(net)):
        kind = kinds.get(net.kind(n))
        fins = tuple((f.node, f.neg) for f in net.fanins(n))
        if kind is None or any(x >= n for x, _ in fins):
            raise OracleError(f"node {n}: bad kind or fanin order")
        plan.append((kind, fins))
    pi_index = {p: i for i, p in enumerate(net.pis)}
    for (pi_words, mask), want in zip(input_chunks(n_pis), ref):
        val = [0] * len(plan)
        for n, (kind, fins) in enumerate(plan):
            if kind == "pi":
                val[n] = pi_words[pi_index[n]]
                continue
            ins = [val[x] ^ (mask if neg else 0) for x, neg in fins]
            if kind == "and":
                val[n] = ins[0] & ins[1]
            elif kind == "xor":
                val[n] = ins[0] ^ ins[1]
            elif kind == "maj":
                a, b, c = ins
                val[n] = (a & b) | (a & c) | (b & c)
        got = [val[s.node] ^ (mask if s.neg else 0) for s in net.outputs]
        if got != want:
            raise OracleError("optimized network differs from the input AIG")


def network_qor(net) -> tuple:
    """(live gate count, depth) of a LogicNetwork."""
    fanins = [tuple(f.node for f in net.fanins(n)) for n in range(len(net))]
    live = set()
    stack = [s.node for s in net.outputs]
    while stack:
        n = stack.pop()
        if n not in live:
            live.add(n)
            stack.extend(fanins[n])
    level = [0] * len(fanins)
    for n, fs in enumerate(fanins):
        if fs:
            level[n] = 1 + max(level[x] for x in fs)
    gates = sum(1 for n in live if fanins[n])
    depth = max((level[s.node] for s in net.outputs), default=0)
    return float(gates), float(depth)


# -- choice networks written as .mch files ---------------------------------


class MchText:
    """A `.mch` file, parsed without the program.

    Node ids: 0 is the constant, 1..P the inputs, then one id per gate line.
    """

    def __init__(self, text: str):
        self.gates = []        # (kind, fanin literals)
        self.outputs = []      # literals
        self.classes = []      # (repr id, [(member id, phase)])
        self.n_pis = None
        for ln, line in enumerate(text.split("\n"), 1):
            tok = line.split("#", 1)[0].split()
            if not tok:
                continue
            if ln == 1:
                if tok[:2] != ["mch", "v1"]:
                    raise OracleError("missing 'mch v1' header")
            elif tok[0] == "pis":
                self.n_pis = int(tok[1])
            elif tok[0] == "gate":
                self.gates.append((tok[1], tuple(int(x) for x in tok[2:])))
            elif tok[0] == "output":
                self.outputs.append(int(tok[1]))
            elif tok[0] == "class":
                members = [(int(m), p == "1")
                           for m, p in (t.split(":") for t in tok[2:])]
                self.classes.append((int(tok[1]), members))
            else:
                raise OracleError(f"line {ln}: unknown record {tok[0]!r}")
        if self.n_pis is None:
            raise OracleError("no 'pis' record")
        first = self.n_pis + 1
        for i, (kind, lits) in enumerate(self.gates):
            if kind not in _ARITY or len(lits) != _ARITY[kind] or \
                    any(x >> 1 >= first + i for x in lits):
                raise OracleError(f"gate {first + i}: bad kind or fanins")

    def node_words(self, pi_words: list, mask: int) -> list:
        val = [0] + list(pi_words)
        for kind, lits in self.gates:
            ins = [val[x >> 1] ^ (mask if x & 1 else 0) for x in lits]
            if kind == "and2":
                val.append(ins[0] & ins[1])
            elif kind == "xor2":
                val.append(ins[0] ^ ins[1])
            else:
                a, b, c = ins
                val.append((a & b) | (a & c) | (b & c))
        return val


_ARITY = {"and2": 2, "xor2": 2, "maj3": 3}


def check_choices(mch: MchText, aig: Aig, ref: list) -> None:
    """The outputs compute the input AIG's outputs, and every choice member
    equals its representative, complemented when its phase says so."""
    if mch.n_pis != len(aig.inputs) or len(mch.outputs) != len(aig.outputs):
        raise OracleError("choice network interface differs from the input")
    n_nodes = mch.n_pis + 1 + len(mch.gates)
    for r, members in mch.classes:
        if not all(0 <= x < n_nodes for x in [r] + [m for m, _ in members]):
            raise OracleError(f"class {r} names a missing node")
    for (pi_words, mask), want in zip(input_chunks(mch.n_pis), ref):
        val = mch.node_words(pi_words, mask)
        got = [val[x >> 1] ^ (mask if x & 1 else 0) for x in mch.outputs]
        if got != want:
            raise OracleError("choice network outputs differ from the input")
        for r, members in mch.classes:
            for m, phase in members:
                if val[m] != val[r] ^ (mask if phase else 0):
                    raise OracleError(f"choice {m} is not "
                                      f"{'~' if phase else ''}{r}")


def choice_qor(mch: MchText, n_input_gates: int) -> tuple:
    """(arena growth, mean depth ratio) of a choice network.

    Arena growth is all gates in the file over the input's gates.  The depth
    ratio is, averaged over outputs, the shallowest depth reachable by
    picking any member of each class, over the structural depth.
    """
    first = mch.n_pis + 1
    fanins = [()] * first + [tuple(x >> 1 for x in lits)
                             for _, lits in mch.gates]
    members = {r: [m for m, _ in ms] for r, ms in mch.classes}

    def relax(best: list) -> bool:
        changed = False
        for n in range(first, len(fanins)):
            d = 1 + max(best[x] for x in fanins[n])
            for m in members.get(n, ()):
                d = min(d, best[m])
            if d < best[n]:
                best[n] = d
                changed = True
        return changed

    depth = [0] * len(fanins)
    for n in range(first, len(fanins)):
        depth[n] = 1 + max(depth[x] for x in fanins[n])
    best = list(depth)
    while relax(best):
        pass
    ratios = [best[x >> 1] / depth[x >> 1] for x in mch.outputs
              if depth[x >> 1]]
    growth = len(mch.gates) / n_input_gates
    return growth, sum(ratios) / len(ratios)
