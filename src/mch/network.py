"""Multi-primitive logic networks with structural hashing.

A LogicNetwork is a DAG over {CONST0, PI, AND2, XOR2, MAJ3} nodes with
complemented edges.  A representation tag (aig/xag/mig/xmg) restricts which
gate kinds may appear, so the same arena type hosts all four graph flavors.

The arena is int columns, as in flat AIG packages: per node a kind code
(its index in KINDS) and three fanin literals, 2 * node + neg (0 where a
node has fewer fanins); a gate's fanins have lower ids.  Every gate
enters through one strash core, `_strash_gate`, which simplifies,
canonicalizes and dedupes a gate over literals, keyed by `(code, lit,
lit[, lit])`.  It has two entry points, each validating its input once:
`add` (one gate) and `run` (a whole network over given leaves, as a
`Walk` that `compile` made once: construction, embedding, `compact`,
template placement; `insert` compiles and runs in one call).  `run`
reads its outputs from the literal image of every step (`images`), which
choice install also reads.  One gate evaluator, `evaluate`, serves
simulation and truth tables.  Callers that walk every node read
`columns`; `kind`, `fanins`, `nodes` and `outputs` are views in kind
names and Signals.  No other module reads the storage (`_code`,
`_fanin`, `_strash`) or spells a gate kind (the others read `ARITY`,
`ALLOWED_KINDS` and `CODE`).
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Iterator, NamedTuple, Optional

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
ARITY = {AND2: 2, XOR2: 2, MAJ3: 3}

# the stored kind codes: a node's code is its kind's index here, and every
# gate's code is at least CODE[AND2]
KINDS = (CONST0, PI, AND2, XOR2, MAJ3)
CODE = {kind: code for code, kind in enumerate(KINDS)}
_CONST, _PI, _AND, _XOR, _MAJ = range(5)
_WIDTH = (0, 0, 2, 2, 3)  # fanins per code


class Signal(NamedTuple):
    node: int
    neg: bool = False

    def __invert__(self) -> "Signal":
        return Signal(self.node, not self.neg)

    def with_neg(self, neg: bool) -> "Signal":
        return Signal(self.node, self.neg ^ neg)


def _signal(lit: int) -> Signal:
    # tuple.__new__ skips the Python frame of the generated __new__
    return tuple.__new__(Signal, (lit >> 1, lit & 1 == 1))


class NetworkError(Exception):
    pass


class UnsupportedConversion(NetworkError):
    pass


class LogicNetwork:
    def __init__(self, tag: str = AIG):
        if tag not in ALLOWED_KINDS:
            raise NetworkError(f"unknown representation tag {tag!r}")
        self.tag = tag
        self._code: list[int] = [_CONST]
        self._fanin: tuple = ([0], [0], [0])
        self.pis: list[int] = []
        self.outputs: list[Signal] = []
        self._strash: dict[tuple, int] = {}

    # -- basic access -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._code)

    def columns(self) -> tuple:
        """The node storage, to be read only: four int lists, one entry per
        node, of kind codes (see KINDS) and first, second and third fanin
        literals, 2 * node + neg, which read 0 past a node's arity."""
        return (self._code, *self._fanin)

    def kind(self, n: int) -> str:
        return KINDS[self._code[n]]

    def fanins(self, n: int) -> tuple:
        return tuple(map(_signal, self._lits(n)))

    def _lits(self, n: int) -> tuple:
        """n's fanin literals."""
        f0, f1, f2 = self._fanin
        return (f0[n], f1[n], f2[n])[:_WIDTH[self._code[n]]]

    def is_gate(self, n: int) -> bool:
        return self._code[n] >= _AND

    def is_pi(self, n: int) -> bool:
        return self._code[n] == _PI

    def is_const(self, n: int) -> bool:
        return self._code[n] == _CONST

    def nodes(self) -> Iterator[tuple]:
        """The (kind, fanins) pair of every node, in id order."""
        return ((self.kind(n), self.fanins(n)) for n in range(len(self)))

    def gates(self) -> list[int]:
        return [n for n, code in enumerate(self._code) if code >= _AND]

    def num_gates(self) -> int:
        return len(self._code) - 1 - len(self.pis)

    @property
    def const0(self) -> Signal:
        return Signal(0, False)

    @property
    def const1(self) -> Signal:
        return Signal(0, True)

    # -- construction -----------------------------------------------------

    def add_pi(self) -> Signal:
        n = len(self._code)
        self._code.append(_PI)
        for col in self._fanin:
            col.append(0)
        self.pis.append(n)
        return Signal(n, False)

    def add_po(self, s: Signal) -> None:
        self._check_signal(s)
        self.outputs.append(s)

    def _check_signal(self, s: tuple) -> None:
        """s is a Signal or a plain (node, neg) pair."""
        if not (0 <= s[0] < len(self._code)):
            raise NetworkError(f"signal refers to missing node {s[0]}")

    def add(self, kind: str, fanins: Iterable[Signal]) -> Signal:
        """Structural-hash add: simplify, canonicalize, dedupe.

        Checks the arity, every fanin's node and the tag's gate kinds, then
        runs the strash core (`_strash_gate`)."""
        fanins = tuple(fanins)
        arity = ARITY.get(kind)
        if arity is None or len(fanins) != arity:
            raise NetworkError(f"bad arity for {kind}: {fanins}")
        for f in fanins:
            self._check_signal(f)
        if kind not in ALLOWED_KINDS[self.tag]:
            raise NetworkError(f"{kind} not allowed in {self.tag} network")
        return _signal(self._strash_gate(
            CODE[kind], *[2 * n + bool(neg) for n, neg in fanins]))

    def add_and(self, a: Signal, b: Signal) -> Signal:
        return self.add(AND2, (a, b))

    def add_or(self, a: Signal, b: Signal) -> Signal:
        return ~self.add(AND2, (~a, ~b))

    def add_xor(self, a: Signal, b: Signal) -> Signal:
        return self.add(XOR2, (a, b))

    def add_maj(self, a: Signal, b: Signal, c: Signal) -> Signal:
        return self.add(MAJ3, (a, b, c))

    def _strash_gate(self, code: int, a: int, b: int, c: int = 0) -> int:
        """The strash core: the literal of gate `code` over the validated
        fanin literals a, b (and c for MAJ3).

        AND2 folds x&x, x&~x and constants; XOR2 pushes complements to its
        output; MAJ3 resolves two fanins on one node, folds a constant
        fanin to AND2/OR and keeps at most one fanin complemented.  Fanins
        are sorted (by literal, which is by node, then phase) and the
        result is looked up in `_strash`; a new node is appended."""
        out = 0
        if code == _AND:
            if a >> 1 == b >> 1:
                return a if a == b else 0  # x & x, x & ~x
            if a < 2:
                return b if a else 0
            if b < 2:
                return a if b else 0
            key = (code, a, b) if a < b else (code, b, a)
        elif code == _XOR:
            out = (a ^ b) & 1
            a, b = a & -2, b & -2
            if a == b:
                return out
            if not a:
                return b | out
            if not b:
                return a | out
            key = (code, a, b) if a < b else (code, b, a)
        else:
            for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
                if x >> 1 == y >> 1:
                    return x if x == y else z  # MAJ(x,x,z), MAJ(x,~x,z)
            for f, u, v in ((a, b, c), (b, a, c), (c, a, b)):
                if f < 2:  # constant fanin folds to AND / OR
                    if not f:
                        return self._strash_gate(_AND, u, v)
                    return self._strash_gate(_AND, u ^ 1, v ^ 1) ^ 1
            if (a & 1) + (b & 1) + (c & 1) >= 2:
                out = 1
                a, b, c = a ^ 1, b ^ 1, c ^ 1
            key = (code, *sorted((a, b, c)))
        n = self._strash.get(key)
        if n is None:
            n = self._strash[key] = len(self._code)
            self._code.append(code)
            f0, f1, f2 = self._fanin
            f0.append(key[1])
            f1.append(key[2])
            f2.append(key[3] if code == _MAJ else 0)
        return n << 1 | out

    # -- analyses ---------------------------------------------------------

    def compute_levels(self) -> "LevelMap":
        lv = [0] * len(self._code)
        for n, code, a, b, c in zip(range(len(lv)), self._code, *self._fanin):
            if code >= _AND:  # a missing third fanin reads node 0
                lv[n] = 1 + max(lv[a >> 1], lv[b >> 1], lv[c >> 1])
        net_level = max((lv[s.node] for s in self.outputs), default=0)
        return LevelMap(lv, net_level)

    def tfi(self, roots: Iterable[int], gates_only: bool = False) -> set[int]:
        """All nodes reachable through fanins from `roots` (roots included)."""
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            stack += [lit >> 1 for lit in self._lits(n)]
        if gates_only:
            seen = {n for n in seen if self._code[n] >= _AND}
        return seen

    def reachable(self) -> set[int]:
        return self.tfi(s.node for s in self.outputs)

    def fanouts(self) -> list[list[int]]:
        """Fanout node ids per node; each PO reference adds a -1 entry."""
        outs: list[list[int]] = [[] for _ in self._code]
        for n in self.gates():
            for lit in self._lits(n):
                outs[lit >> 1].append(n)
        for s in self.outputs:
            outs[s.node].append(-1)
        return outs

    def mffc(self, n: int, max_leaves: Optional[int] = None,
             fanouts: Optional[list[list[int]]] = None) -> tuple:
        """Maximum fanout-free cone of n, leaf support bounded by
        max_leaves, as (cone, leaves): the members and their fanins outside.

        Returns ({n}, set()) for PI/CONST roots (degenerate cone with no
        gates).  Every other member is a gate with all of its fanouts in it.

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
            return {n}, set()
        if fanouts is None:
            fanouts = self.fanouts()
        code, lits = self._code, self._lits
        cone = {n}
        leaves = {lit >> 1 for lit in lits(n)}
        heap = [-m for m in leaves if code[m] >= _AND]
        heapq.heapify(heap)
        while heap:
            m = -heapq.heappop(heap)
            if any(o == -1 or o not in cone for o in fanouts[m]):
                continue
            # fanins of m are below every member, so none is in the cone
            new = {lit >> 1 for lit in lits(m)} - leaves
            if (max_leaves is not None
                    and len(leaves) - 1 + len(new) > max_leaves):
                continue
            cone.add(m)
            leaves.discard(m)
            leaves |= new
            for g in new:
                if code[g] >= _AND:
                    heapq.heappush(heap, -g)
        return cone, leaves

    def critical_path_nodes(self, r: float) -> set[int]:
        """Gates in the TFI of PO drivers whose level >= ceil(r * depth)."""
        if not 0.0 <= r <= 1.0:
            raise NetworkError("ratio must be within [0, 1]")
        lm = self.compute_levels()
        threshold = math.ceil(r * lm.network_level)
        roots = [s.node for s in self.outputs if lm.level[s.node] >= threshold]
        return self.tfi(roots, gates_only=True)

    # -- structure-preserving embedding -----------------------------------

    def insert(self, src: "LogicNetwork", leaves: Iterable[tuple],
               gates: Optional[Iterable[int]] = None) -> list[Signal]:
        """Rebuild src's gates here through strash, reading src's i-th PI
        as leaves[i], a Signal or a plain (node, neg) pair; returns the
        images of src's outputs: `run` over `src.compile(gates)`."""
        return self.run(src.compile(gates), leaves)

    def compile(self, gates: Optional[Iterable[int]] = None) -> "Walk":
        """This network's gates as a straight-line strash walk: all of them
        in ascending id order, or only `gates` (ascending ids covering the
        cone of every output; a NetworkError names a fanin or output they
        miss)."""
        code, (f0, f1, f2) = self._code, self._fanin
        slot: list = [None] * len(code)
        slot[0] = 0
        for i, pi in enumerate(self.pis):
            slot[pi] = i + 1
        nxt = len(self.pis) + 1
        steps = []
        for g in self.gates() if gates is None else gates:
            if code[g] < _AND:  # CONST0 or a PI
                continue
            # a missing third fanin reads node 0, slot 0
            a, b, c = f0[g], f1[g], f2[g]
            sa, sb, sc = slot[a >> 1], slot[b >> 1], slot[c >> 1]
            if sa is None or sb is None or sc is None:
                n = next(x >> 1 for x in (a, b, c) if slot[x >> 1] is None)
                raise NetworkError(
                    f"gate {g} reads node {n}, which is neither an input "
                    f"nor among the gates to rebuild")
            steps.append((code[g], 2 * sa + (a & 1), 2 * sb + (b & 1),
                          2 * sc + (c & 1)))
            slot[g] = nxt
            nxt += 1
        for n, _ in self.outputs:
            if slot[n] is None:
                raise NetworkError(f"output node {n} is neither an input nor "
                                   f"among the gates to rebuild")
        kinds = dict.fromkeys(KINDS[step[0]] for step in steps)
        return Walk(self.tag, tuple(kinds), len(self.pis), tuple(steps),
                    tuple(2 * slot[n] + neg for n, neg in self.outputs))

    def run(self, walk: "Walk", leaves: Iterable[tuple]) -> list[Signal]:
        """Run a compiled walk here through the strash core over one leaf
        per walk input, a Signal or a plain (node, neg) pair, and return
        the Signal image of each of its outputs: `images` read at the
        walk's outputs."""
        vals = self.images(walk, [2 * n + bool(neg) for n, neg in leaves])
        return [_signal(vals[s >> 1] ^ (s & 1)) for s in walk.outputs]

    def images(self, walk: "Walk", leaves: Iterable[int]) -> list[int]:
        """The step loop under `run`: over one leaf literal per walk
        input, the literal image of every walk slot, the constant, then
        the leaves, then one per step in step order, which is
        topological.  The leaf count, every leaf's node and the walk's
        gate kinds (UnsupportedConversion when this tag does not allow
        one) are checked before the arena changes."""
        vals = [0, *leaves]
        if len(vals) != walk.inputs + 1:
            raise NetworkError(f"{len(vals) - 1} leaves for "
                               f"{walk.inputs} inputs")
        top = 2 * len(self._code)
        for v in vals:
            if not 0 <= v < top:
                raise NetworkError(f"signal refers to missing node {v >> 1}")
        allowed = ALLOWED_KINDS[self.tag]
        if not allowed.issuperset(walk.kinds):
            kind = next(k for k in walk.kinds if k not in allowed)
            raise UnsupportedConversion(f"cannot embed {walk.tag} {kind} "
                                        f"gates into {self.tag}")
        core = self._strash_gate
        for code, a, b, c in walk.gates:
            vals.append(core(code, vals[a >> 1] ^ (a & 1),
                             vals[b >> 1] ^ (b & 1), vals[c >> 1] ^ (c & 1)))
        return vals

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

    def evaluate(self, order: Iterable[int], memo: dict, ones: int) -> dict:
        """Write into memo (node -> word, seeded with node 0 and the
        inputs) the word of each node of `order`, a topological order,
        from its kind and its fanins' words; a node already in memo keeps
        its word.  A complemented fanin is XORed with `ones`, the
        all-ones word.  Returns memo."""
        code, (f0, f1, f2) = self._code, self._fanin
        flip = (0, ones)
        for n in order:
            if n in memo:
                continue
            a, b, c = f0[n], f1[n], f2[n]  # a missing c reads node 0
            a, b, c = (memo[a >> 1] ^ flip[a & 1], memo[b >> 1] ^ flip[b & 1],
                       memo[c >> 1] ^ flip[c & 1])
            kind = code[n]
            memo[n] = (a & b if kind == _AND else a ^ b if kind == _XOR
                       else (a & b) | (a & c) | (b & c))
        return memo

    def simulate(self, pi_values: dict[int, int], width: int) -> dict:
        """Bit-parallel simulation; pi_values maps PI node -> packed word
        (0 when missing).  Returns the evaluator's memo: every node's word
        by id."""
        mask = (1 << width) - 1
        memo = {n: pi_values.get(n, 0) & mask for n in self.pis}
        memo[0] = 0
        return self.evaluate(range(len(self._code)), memo, mask)

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
    (code, lit, lit, lit) step, fills the next slot; a fanin or an output
    is a slot literal, 2 * slot + neg, and a 2-input gate's third fanin
    is slot literal 0."""
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
