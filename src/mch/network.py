"""Multi-primitive logic networks with structural hashing.

A LogicNetwork is a DAG over {CONST0, PI, AND2, XOR2, MAJ3} nodes with
complemented edges.  A representation tag (aig/xag/mig/xmg) restricts which
gate kinds may appear, so the same arena type hosts all four graph flavors.
"""

from __future__ import annotations

import heapq
from typing import Iterable, NamedTuple, Optional

CONST0 = "const0"
PI = "pi"
AND2 = "and2"
XOR2 = "xor2"
MAJ3 = "maj3"

AIG = "aig"
XAG = "xag"
MIG = "mig"
XMG = "xmg"

# AND2 is deliberately legal in MIG: a MAJ3 with a constant fanin is
# canonicalized back to AND2 by strash, which keeps node counts stable
# across one-to-one embedding.
ALLOWED_KINDS = {
    AIG: frozenset({AND2}),
    XAG: frozenset({AND2, XOR2}),
    MIG: frozenset({AND2, MAJ3}),
    XMG: frozenset({AND2, XOR2, MAJ3}),
}

GATE_KINDS = (AND2, XOR2, MAJ3)


class Signal(NamedTuple):
    node: int
    neg: bool = False

    def __invert__(self) -> "Signal":
        return Signal(self.node, not self.neg)

    def with_neg(self, neg: bool) -> "Signal":
        return Signal(self.node, self.neg ^ neg)


class NetworkError(Exception):
    pass


class UnsupportedConversion(NetworkError):
    pass


class _Node(NamedTuple):
    kind: str
    fanins: tuple


class LogicNetwork:
    def __init__(self, tag: str = AIG):
        if tag not in ALLOWED_KINDS:
            raise NetworkError(f"unknown representation tag {tag!r}")
        self.tag = tag
        self._nodes: list[_Node] = [_Node(CONST0, ())]
        self.pis: list[int] = []
        self.outputs: list[Signal] = []
        self._strash: dict[tuple, int] = {}

    # -- basic access -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def kind(self, n: int) -> str:
        return self._nodes[n].kind

    def fanins(self, n: int) -> tuple:
        return self._nodes[n].fanins

    def is_gate(self, n: int) -> bool:
        return self._nodes[n].kind in (AND2, XOR2, MAJ3)

    def is_pi(self, n: int) -> bool:
        return self._nodes[n].kind == PI

    def is_const(self, n: int) -> bool:
        return self._nodes[n].kind == CONST0

    def gates(self) -> Iterable[int]:
        for n in range(len(self._nodes)):
            if self.is_gate(n):
                yield n

    def num_gates(self) -> int:
        return sum(1 for _ in self.gates())

    @property
    def const0(self) -> Signal:
        return Signal(0, False)

    @property
    def const1(self) -> Signal:
        return Signal(0, True)

    # -- construction -----------------------------------------------------

    def add_pi(self) -> Signal:
        n = len(self._nodes)
        self._nodes.append(_Node(PI, ()))
        self.pis.append(n)
        return Signal(n, False)

    def add_po(self, s: Signal) -> None:
        self._check_signal(s)
        self.outputs.append(s)

    def _check_signal(self, s: Signal) -> None:
        if not (0 <= s.node < len(self._nodes)):
            raise NetworkError(f"signal refers to missing node {s.node}")

    def add(self, kind: str, fanins: Iterable[Signal]) -> Signal:
        """Structural-hash add: simplify, canonicalize, dedupe."""
        fanins = tuple(fanins)
        arity = {AND2: 2, XOR2: 2, MAJ3: 3}.get(kind)
        if arity is None or len(fanins) != arity:
            raise NetworkError(f"bad arity for {kind}: {fanins}")
        for f in fanins:
            self._check_signal(f)
        if kind not in ALLOWED_KINDS[self.tag]:
            raise NetworkError(f"{kind} not allowed in {self.tag} network")
        if kind == AND2:
            return self._add_and(*fanins)
        if kind == XOR2:
            return self._add_xor(*fanins)
        return self._add_maj(*fanins)

    def add_and(self, a: Signal, b: Signal) -> Signal:
        return self.add(AND2, (a, b))

    def add_or(self, a: Signal, b: Signal) -> Signal:
        return ~self.add(AND2, (~a, ~b))

    def add_xor(self, a: Signal, b: Signal) -> Signal:
        return self.add(XOR2, (a, b))

    def add_maj(self, a: Signal, b: Signal, c: Signal) -> Signal:
        return self.add(MAJ3, (a, b, c))

    def _raw_add(self, kind: str, fanins: tuple) -> Signal:
        key = (kind, fanins)
        hit = self._strash.get(key)
        if hit is not None:
            return Signal(hit, False)
        n = len(self._nodes)
        self._nodes.append(_Node(kind, fanins))
        self._strash[key] = n
        return Signal(n, False)

    def _add_and(self, a: Signal, b: Signal) -> Signal:
        if a.node == b.node:
            if a.neg == b.neg:
                return a  # x & x
            return self.const0  # x & ~x
        if a.node == 0:
            return b if a.neg else self.const0
        if b.node == 0:
            return a if b.neg else self.const0
        if b < a:
            a, b = b, a
        return self._raw_add(AND2, (a, b))

    def _add_xor(self, a: Signal, b: Signal) -> Signal:
        # Complements push to the output so stored fanins are positive.
        out_neg = a.neg ^ b.neg
        a, b = Signal(a.node), Signal(b.node)
        if a.node == b.node:
            return Signal(0, out_neg)
        if a.node == 0:
            return Signal(b.node, out_neg)
        if b.node == 0:
            return Signal(a.node, out_neg)
        if b < a:
            a, b = b, a
        return self._raw_add(XOR2, (a, b)).with_neg(out_neg)

    def _add_maj(self, a: Signal, b: Signal, c: Signal) -> Signal:
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            if x.node == y.node:
                if x.neg == y.neg:
                    return x  # two equal fanins win
                return z  # MAJ(x, ~x, z) = z
        fs = [a, b, c]
        # constant fanin folds to AND/OR
        for i, f in enumerate(fs):
            if f.node == 0:
                u, v = (fs[j] for j in range(3) if j != i)
                if f.neg:
                    return self.add_or(u, v)
                return self._add_and(u, v)
        # canonical polarity: at most one complemented fanin
        if sum(f.neg for f in fs) >= 2:
            return ~self._add_maj(~a, ~b, ~c)
        fs.sort()
        return self._raw_add(MAJ3, tuple(fs))

    # -- analyses ---------------------------------------------------------

    def compute_levels(self) -> "LevelMap":
        lv = [0] * len(self._nodes)
        for n in range(len(self._nodes)):
            node = self._nodes[n]
            if node.kind in (CONST0, PI):
                lv[n] = 0
            else:
                lv[n] = 1 + max(lv[f.node] for f in node.fanins)
        net_level = max((lv[s.node] for s in self.outputs), default=0)
        return LevelMap(lv, net_level)

    def fanout_counts(self) -> list[int]:
        refs = [0] * len(self._nodes)
        for n in range(len(self._nodes)):
            for f in self._nodes[n].fanins:
                refs[f.node] += 1
        for s in self.outputs:
            refs[s.node] += 1
        return refs

    def tfi(self, roots: Iterable[int], gates_only: bool = False) -> set[int]:
        """All nodes reachable through fanins from `roots` (roots included)."""
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            stack.extend(f.node for f in self._nodes[n].fanins)
        if gates_only:
            seen = {n for n in seen if self.is_gate(n)}
        return seen

    def reachable(self) -> set[int]:
        return self.tfi(s.node for s in self.outputs)

    def fanouts(self) -> list[list[int]]:
        """Fanout node ids per node; each PO reference adds a -1 entry."""
        outs: list[list[int]] = [[] for _ in self._nodes]
        for n, node in enumerate(self._nodes):
            for f in node.fanins:
                outs[f.node].append(n)
        for s in self.outputs:
            outs[s.node].append(-1)
        return outs

    def mffc(self, n: int, max_leaves: Optional[int] = None,
             fanouts: Optional[list[list[int]]] = None) -> set[int]:
        """Maximum fanout-free cone of n, leaf support bounded by max_leaves.

        Returns {n} for PI/CONST roots (degenerate cone with no gates).
        Every non-root member has all of its fanouts inside the set.

        The rule is reverse-topological, first-fit and leaf-bounded: gates
        of the TFI of n are decided in descending id order, and each joins
        the cone when none of its fanouts is a PO or outside the cone and
        the cone's leaf support stays within max_leaves.  Only gate fanins
        of members can pass, so the walk pops them from a max-heap frontier
        and updates the leaf set per member; every fanout has a higher id
        than its fanin, so it is decided before the fanin is popped.

        Cost: linear in the cone plus its frontier (times the heap's log
        factor), given `fanouts`: the map from fanouts(), built once for a
        network that is not modified in between.  Without it the map is
        built here, which is linear in the network.
        """
        if not self.is_gate(n):
            return {n}
        if fanouts is None:
            fanouts = self.fanouts()
        nodes = self._nodes
        cone = {n}
        leaves = {f.node for f in nodes[n].fanins}
        heap = [-m for m in leaves if nodes[m].kind in GATE_KINDS]
        heapq.heapify(heap)
        while heap:
            m = -heapq.heappop(heap)
            if any(o == -1 or o not in cone for o in fanouts[m]):
                continue
            # fanins of m are below every member, so none is in the cone
            new = {f.node for f in nodes[m].fanins} - leaves
            if (max_leaves is not None
                    and len(leaves) - 1 + len(new) > max_leaves):
                continue
            cone.add(m)
            leaves.discard(m)
            leaves |= new
            for g in new:
                if nodes[g].kind in GATE_KINDS:
                    heapq.heappush(heap, -g)
        return cone

    def mffc_leaves(self, cone: set[int]) -> list[int]:
        leaves = set()
        for m in cone:
            for f in self._nodes[m].fanins:
                if f.node not in cone:
                    leaves.add(f.node)
        return sorted(leaves)

    def critical_path_nodes(self, r: float) -> set[int]:
        """Gates in the TFI of PO drivers whose level >= ceil(r * depth)."""
        if not 0.0 <= r <= 1.0:
            raise NetworkError("ratio must be within [0, 1]")
        lm = self.compute_levels()
        import math

        threshold = math.ceil(r * lm.network_level)
        roots = [s.node for s in self.outputs if lm.level[s.node] >= threshold]
        return self.tfi(roots, gates_only=True)

    # -- structure-preserving embedding -----------------------------------

    def insert(self, src: "LogicNetwork", leaves: Iterable[Signal],
               gates: Optional[Iterable[int]] = None) -> list[Signal]:
        """Rebuild src's gates here through strash, reading src's i-th PI
        as leaves[i]; returns the images of src's outputs.

        Gates are rebuilt in ascending id order: all of them, or only
        `gates` (ascending src ids covering the cone of every output).
        """
        leaves = list(leaves)
        if len(leaves) != len(src.pis):
            raise NetworkError(f"{len(leaves)} leaves for "
                               f"{len(src.pis)} inputs")
        xlat: list = [None] * len(src._nodes)
        xlat[0] = self.const0
        for pi, s in zip(src.pis, leaves):
            xlat[pi] = s
        nodes = src._nodes
        for g in src.gates() if gates is None else gates:
            kind, fanins = nodes[g]
            xlat[g] = self.add(kind, tuple(xlat[f.node].with_neg(f.neg)
                                           for f in fanins))
        return [xlat[s.node].with_neg(s.neg) for s in src.outputs]

    def one_to_one_map(self, target: str) -> "LogicNetwork":
        """Node-for-node copy into a (weakly more expressive) representation."""
        if target not in ALLOWED_KINDS:
            raise NetworkError(f"unknown representation tag {target!r}")
        used = {self._nodes[n].kind for n in self.gates()}
        if not used <= ALLOWED_KINDS[target]:
            raise UnsupportedConversion(
                f"cannot embed {self.tag} gates {sorted(used)} into {target}")
        out = LogicNetwork(target)
        for s in out.insert(self, [out.add_pi() for _ in self.pis]):
            out.add_po(s)
        return out

    def compact(self) -> "LogicNetwork":
        """Copy keeping only nodes reachable from the outputs (and all PIs,
        to preserve the interface)."""
        live = sorted(n for n in self.reachable() if self.is_gate(n))
        out = LogicNetwork(self.tag)
        for s in out.insert(self, [out.add_pi() for _ in self.pis], live):
            out.add_po(s)
        return out

    # -- simulation -------------------------------------------------------

    def simulate(self, pi_values: dict[int, int], width: int) -> list[int]:
        """Bit-parallel simulation; pi_values maps PI node -> packed word."""
        mask = (1 << width) - 1
        val = [0] * len(self._nodes)
        for n in self.pis:
            val[n] = pi_values.get(n, 0) & mask
        for n in range(len(self._nodes)):
            node = self._nodes[n]
            if node.kind in (CONST0, PI):
                continue
            ins = [val[f.node] ^ (mask if f.neg else 0) for f in node.fanins]
            if node.kind == AND2:
                val[n] = ins[0] & ins[1]
            elif node.kind == XOR2:
                val[n] = ins[0] ^ ins[1]
            else:
                val[n] = (ins[0] & ins[1]) | (ins[0] & ins[2]) | (ins[1] & ins[2])
        return val

    def output_values(self, pi_values: dict[int, int], width: int) -> list[int]:
        mask = (1 << width) - 1
        val = self.simulate(pi_values, width)
        return [val[s.node] ^ (mask if s.neg else 0) for s in self.outputs]

    def exhaustive_outputs(self) -> list[int]:
        """Truth tables of all POs over the PIs (requires few PIs)."""
        n = len(self.pis)
        if n > 20:
            raise NetworkError("too many PIs for exhaustive simulation")
        width = 1 << n
        pats = exhaustive_patterns(self.pis)
        return self.output_values(pats, width)


class LevelMap(NamedTuple):
    level: list[int]
    network_level: int


def exhaustive_patterns(pis: list[int]) -> dict[int, int]:
    """Standard minterm-order input words: bit j of PI i is (j >> i) & 1."""
    n = len(pis)
    width = 1 << n
    pats = {}
    for i, node in enumerate(pis):
        word = 0
        period = 1 << i
        block = (1 << period) - 1
        for start in range(period, width, 2 * period):
            word |= block << start
        pats[node] = word
    return pats
