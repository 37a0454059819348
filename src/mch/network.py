"""Multi-primitive logic networks with structural hashing.

A LogicNetwork is a DAG over {CONST0, PI, AND2, XOR2, MAJ3} nodes with
complemented edges.  A representation tag (aig/xag/mig/xmg) restricts which
gate kinds may appear, so the same arena type hosts all four graph flavors.

Every gate enters the arena through one strash core, `_strash_gate`, which
simplifies, canonicalizes and dedupes a gate over plain (node, neg) pairs.
It has two entry points, each validating its input once: `add` (one gate)
and `run` (a whole network over given leaves, as a `Walk` that `compile`
made once: construction, embedding, `compact`, template placement;
`insert` compiles and runs in one call).  Signals are made only at that
API edge and for the fanins of stored nodes.
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
_ARITY = {AND2: 2, XOR2: 2, MAJ3: 3}
_FALSE = (0, False)


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

    def _check_signal(self, s: tuple) -> None:
        """s is a Signal or a plain (node, neg) pair."""
        if not (0 <= s[0] < len(self._nodes)):
            raise NetworkError(f"signal refers to missing node {s[0]}")

    def add(self, kind: str, fanins: Iterable[Signal]) -> Signal:
        """Structural-hash add: simplify, canonicalize, dedupe.

        Checks the arity, every fanin's node and the tag's gate kinds, then
        runs the strash core (`_strash_gate`)."""
        fanins = tuple(fanins)
        arity = _ARITY.get(kind)
        if arity is None or len(fanins) != arity:
            raise NetworkError(f"bad arity for {kind}: {fanins}")
        for f in fanins:
            self._check_signal(f)
        if kind not in ALLOWED_KINDS[self.tag]:
            raise NetworkError(f"{kind} not allowed in {self.tag} network")
        return Signal(*self._strash_gate(kind, fanins))

    def add_and(self, a: Signal, b: Signal) -> Signal:
        return self.add(AND2, (a, b))

    def add_or(self, a: Signal, b: Signal) -> Signal:
        return ~self.add(AND2, (~a, ~b))

    def add_xor(self, a: Signal, b: Signal) -> Signal:
        return self.add(XOR2, (a, b))

    def add_maj(self, a: Signal, b: Signal, c: Signal) -> Signal:
        return self.add(MAJ3, (a, b, c))

    def _strash_gate(self, kind: str, fs) -> tuple:
        """The strash core: the (node, neg) image of gate `kind` over the
        (node, neg) pairs `fs`, which the caller has validated.

        AND2 folds x&x, x&~x and constants; XOR2 pushes complements to its
        output; MAJ3 resolves two fanins on one node, folds a constant
        fanin to AND2/OR and keeps at most one fanin complemented.  Fanins
        are sorted and the result is looked up in `_strash`, whose keys are
        the stored `_Node`s: a Signal is a tuple, so a key built from plain
        pairs matches one.  Only a new node gets Signal fanins.  A result
        is a plain pair or one of `fs`.
        """
        out_neg = False
        if kind == AND2:
            a, b = fs
            if a[0] == b[0]:
                return a if a[1] == b[1] else _FALSE  # x & x, x & ~x
            if a[0] == 0:
                return b if a[1] else _FALSE
            if b[0] == 0:
                return a if b[1] else _FALSE
            key = (kind, (a, b) if a[0] < b[0] else (b, a))
        elif kind == XOR2:
            (na, ga), (nb, gb) = fs
            out_neg = ga ^ gb
            if na == nb:
                return (0, out_neg)
            if na == 0:
                return (nb, out_neg)
            if nb == 0:
                return (na, out_neg)
            if nb < na:
                na, nb = nb, na
            key = (kind, ((na, False), (nb, False)))
        else:
            a, b, c = fs
            for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
                if x[0] == y[0]:
                    return x if x[1] == y[1] else z  # MAJ(x,x,z), MAJ(x,~x,z)
            for f, u, v in ((a, b, c), (b, a, c), (c, a, b)):
                if f[0] == 0:  # constant fanin folds to AND / OR
                    if not f[1]:
                        return self._strash_gate(AND2, (u, v))
                    n, neg = self._strash_gate(
                        AND2, ((u[0], not u[1]), (v[0], not v[1])))
                    return (n, not neg)
            if a[1] + b[1] + c[1] >= 2:
                out_neg = True
                a, b, c = ((a[0], not a[1]), (b[0], not b[1]),
                           (c[0], not c[1]))
            key = (kind, tuple(sorted((a, b, c))))
        n = self._strash.get(key)
        if n is None:
            n = len(self._nodes)
            node = _Node(kind, tuple([Signal(m, neg) for m, neg in key[1]]))
            self._nodes.append(node)
            self._strash[node] = n  # the node is its own key
        return (n, out_neg)

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

    def insert(self, src: "LogicNetwork", leaves: Iterable[tuple],
               gates: Optional[Iterable[int]] = None) -> list[Signal]:
        """Rebuild src's gates here through strash, reading src's i-th PI
        as leaves[i], a Signal or a plain (node, neg) pair; returns the
        images of src's outputs: `run` over `src.compile(gates)`."""
        return [Signal(*s) for s in self.run(src.compile(gates), leaves)]

    def compile(self, gates: Optional[Iterable[int]] = None) -> "Walk":
        """This network's gates as a straight-line strash walk: all of them
        in ascending id order, or only `gates` (ascending ids covering the
        cone of every output; a NetworkError names a fanin or output they
        miss)."""
        nodes = self._nodes
        slot: list = [None] * len(nodes)
        slot[0] = 0
        for i, pi in enumerate(self.pis):
            slot[pi] = i + 1
        nxt = len(self.pis) + 1
        steps, kinds = [], {}
        for g in range(len(nodes)) if gates is None else gates:
            kind, fanins = nodes[g]
            if not fanins:  # CONST0 or a PI
                continue
            for n, _ in fanins:
                if slot[n] is None:
                    raise NetworkError(
                        f"gate {g} reads node {n}, which is neither an "
                        f"input nor among the gates to rebuild")
            steps.append((kind, tuple((slot[n], neg) for n, neg in fanins)))
            kinds[kind] = None
            slot[g] = nxt
            nxt += 1
        for n, _ in self.outputs:
            if slot[n] is None:
                raise NetworkError(f"output node {n} is neither an input nor "
                                   f"among the gates to rebuild")
        return Walk(self.tag, tuple(kinds), len(self.pis), tuple(steps),
                    tuple((slot[n], neg) for n, neg in self.outputs))

    def run(self, walk: "Walk", leaves: Iterable[tuple]) -> list[tuple]:
        """Run a compiled walk here through the strash core over one leaf
        per walk input, a Signal or a plain (node, neg) pair, and return
        the (node, neg) image of each of its outputs.  The leaf count,
        every leaf's node and the walk's gate kinds (UnsupportedConversion
        when this tag does not allow one) are checked before the arena
        changes."""
        vals = [_FALSE, *leaves]
        if len(vals) != walk.inputs + 1:
            raise NetworkError(f"{len(vals) - 1} leaves for "
                               f"{walk.inputs} inputs")
        for s in vals:
            self._check_signal(s)
        allowed = ALLOWED_KINDS[self.tag]
        for kind in walk.kinds:
            if kind not in allowed:
                raise UnsupportedConversion(f"cannot embed {walk.tag} {kind} "
                                            f"gates into {self.tag}")
        core = self._strash_gate
        for kind, fanins in walk.gates:
            vals.append(core(kind, [(vals[s][0], not vals[s][1]) if neg
                                    else vals[s] for s, neg in fanins]))
        return [(vals[s][0], vals[s][1] ^ neg) for s, neg in walk.outputs]

    def one_to_one_map(self, target: str) -> "LogicNetwork":
        """Node-for-node copy into a (weakly more expressive) representation.

        Raises UnsupportedConversion (from `insert`) when a gate's kind is
        not allowed in `target`."""
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


class Walk(NamedTuple):
    """A network's gates as a straight-line program for the strash core:
    slot 0 is constant 0, slots 1..inputs the inputs, and each gate, a
    (kind, fanins) step, fills the next slot; a fanin or an output is a
    (slot, neg) pair."""
    tag: str             # the compiled network's representation
    kinds: tuple         # gate kinds among the steps, first use first
    inputs: int
    gates: tuple
    outputs: tuple


class LevelMap(NamedTuple):
    level: list[int]
    network_level: int


def exhaustive_patterns(pis: list[int]) -> dict[int, int]:
    """Standard minterm-order input words: bit j of PI i is (j >> i) & 1.

    Each word repeats one byte pattern: 0xAA, 0xCC, 0xF0 for PIs 0-2, and
    2^(i-3) zero bytes then 2^(i-3) 0xFF bytes for PI i >= 3."""
    width = 1 << len(pis)
    nbytes = max(width >> 3, 1)
    mask = (1 << width) - 1
    pats = {}
    for i, node in enumerate(pis):
        if i < 3:
            unit = bytes(((0xAA, 0xCC, 0xF0)[i],))
        else:
            half = 1 << (i - 3)
            unit = bytes(half) + b"\xff" * half
        pats[node] = int.from_bytes(unit * (nbytes // len(unit)),
                                    "little") & mask
    return pats
