"""Choice-aware cut-based technology mapping for LUT and cell targets.

The mapper covers a choice network with K-input LUTs or library cells.
Cut pools, member-cut pooling with the phase folded into the table, and
truth-table composition all belong to `cuts.CutEngine`, which builds the
pools of a whole dependency level at once on numpy arrays, so a
representative sees its own cuts plus every class member's cuts and the
dynamic program picks whichever structure maps cheapest.  This module
holds one round driver (`_Rounds`): a delay round establishes optimal
arrivals, then area-flow and exact-area rounds recover area under
required times, each kept only if the cover does not get worse.  LUT and
cell mapping are two cost models over it (`_LutCover`, `_CellCover`).
Each hands the engine a vectorized sort key over per-node values kept
current level by level (LUTs: arrival and area flow per fanout estimate;
cells: the better phase's arrival and area flow), and the engine stores
each node's best `l` cuts.  The LUT mapper then picks every node of a
level at once and reads from the engine only the tables of the final
cover (`_extract_lut`); the cell mapper matches and picks node by node,
reading every stored cut's table, and keeps a host gate's elementary
fanin cut stored so that the gate is always matchable.  A round that
meets a node it cannot cover finishes, then reports the failing node
that comes first in dependency order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .choices import ChoiceNetwork
from .cuts import CutEngine
from .npn import apply_npn, compose, npn_canonize
from .tt import TruthTable
from .verify import EXHAUSTIVE_PI_LIMIT

DELAY = "delay"
AREA = "area"
BALANCED = "balanced"
LUT = "lut"
CELL = "cell"

INF = math.inf
_EPS = 1e-9


class MapParams(NamedTuple):
    k: int = 6
    l: int = 8
    mode: str = BALANCED
    rounds: int = 4
    target: str = LUT


class MapError(Exception):
    pass


class LibraryError(MapError):
    pass


# -- mapped netlist ----------------------------------------------------


class Instance(NamedTuple):
    out: int                 # id; ids 0..n_pis-1 are the primary inputs
    cell: str                # cell name, or "lut"
    area: float
    tt: TruthTable           # function over ins, in order
    ins: tuple               # ids of input drivers


@dataclass
class MappedNetlist:
    target: str
    n_pis: int
    instances: list = field(default_factory=list)
    outputs: list = field(default_factory=list)   # (id, negated) pairs
    stats: dict = field(default_factory=dict)

    def simulate(self, pi_words: list, width: int) -> list:
        mask = (1 << width) - 1
        vals: dict[int, int] = {i: pi_words[i] & mask
                                for i in range(self.n_pis)}
        for inst in self.instances:
            ins = [vals[i] for i in inst.ins]
            out = 0
            for m in range(1 << inst.tt.var_count):
                if not inst.tt.value_at(m):
                    continue
                term = mask
                for j, w in enumerate(ins):
                    term &= w if (m >> j) & 1 else ~w
                out |= term
            vals[inst.out] = out & mask
        return [(vals[i] ^ (mask if neg else 0)) & mask
                for i, neg in self.outputs]


def _check_structure(m: MappedNetlist) -> bool:
    defined = set(range(m.n_pis))
    for inst in m.instances:
        if inst.out in defined:
            return False
        if len(inst.ins) != inst.tt.var_count:
            return False
        if any(i not in defined for i in inst.ins):
            return False
        defined.add(inst.out)
    return all(i in defined for i, _ in m.outputs)


def cover_check(m: MappedNetlist, src) -> bool:
    """Legal-cover plus functional-equivalence check against the source.

    Exhaustive up to EXHAUSTIVE_PI_LIMIT inputs; above that, 256 patterns:
    254 random ones plus the all-0 and all-1 corners, so a pass on wide
    networks is evidence, not proof.
    """
    import random

    from .network import exhaustive_patterns

    if not _check_structure(m):
        return False
    if m.n_pis != len(src.pis) or len(m.outputs) != len(src.outputs):
        return False
    npi = len(src.pis)
    if npi <= EXHAUSTIVE_PI_LIMIT:
        width = 1 << max(npi, 1)
        pats = exhaustive_patterns(src.pis)
        words = [pats[p] for p in src.pis]
    else:
        width = 256
        rng = random.Random(0xC07E)
        # pattern 0 is the all-zeros corner, the top pattern all-ones
        words = [(rng.getrandbits(width) & ~1) | (1 << (width - 1))
                 for _ in range(npi)]
    got = m.simulate(words, width)
    want = src.output_values({p: words[i] for i, p in enumerate(src.pis)},
                             width)
    return got == want


# -- round driver ------------------------------------------------------


def _dep_order(cn: ChoiceNetwork):
    """Gate order where all cut leaves of a node, including leaves inside
    member cones, come before the node itself."""
    net = cn.base
    state: dict[int, int] = {}
    order: list[int] = []
    for start in net.gates():
        if state.get(start) == 2:
            continue
        stack = [start]
        while stack:
            n = stack[-1]
            if state.get(n) == 2 or not net.is_gate(n):
                stack.pop()
                continue
            deps = [f.node for f in net.fanins(n)]
            if n in cn.first_choice:
                deps.extend(cn.members(n))
            pend = [d for d in deps
                    if net.is_gate(d) and state.get(d) != 2]
            if pend:
                if state.get(n) == 1 and any(state.get(d) == 1
                                             for d in pend):
                    raise MapError("cyclic choice dependencies")
                state[n] = 1
                stack.extend(pend)
                continue
            stack.pop()
            state[n] = 2
            order.append(n)
    return order


class _Rounds:
    """Delay, area-flow and exact-area rounds with rollback, over a cost
    model supplied by a subclass.

    The model works on integer keys: a node for LUT mapping, a node phase
    for cell mapping.  It fills one slot per key in `chosen`, `arr`, `flow`,
    `est` and `base_est` (the fanout estimate of a key outside the cover),
    lists the PO keys in `roots` and the decision keys in dependency order
    in `keys`, and supplies enum_round (re-enumerate cuts and pick per
    key), plus, per choice: own_area, children (keys it references),
    edges ((child, delay) pairs), arrival, tie, and cands (the alternatives
    of a key).
    """

    def __init__(self, cn: ChoiceNetwork, p: MapParams, width: int):
        net = cn.base
        self.net, self.p = net, p
        self.order = _dep_order(cn)
        self.engine = CutEngine(net, p.k, {
            r: [(m, cn.phase[m]) for m in cn.members(r)]
            for r in cn.first_choice}, self.order)
        self.req = [INF] * (width * len(net))
        # fanout estimates from the structural cone only, so member gates
        # do not inflate the sharing estimate of original nodes
        fouts = [0] * len(net)
        for n in net.tfi([s.node for s in net.outputs], gates_only=True):
            for f in net.fanins(n):
                fouts[f.node] += 1
        for s in net.outputs:
            fouts[s.node] += 1
        self.fouts = fouts

    def tie(self, m) -> int:
        return 0

    def run(self) -> tuple:
        """All rounds of p; returns the accepted cover's (area, delay)."""
        p = self.p
        self.enum_round(True, False)
        refs, area0, delay0 = self.cover()
        snapshot = (self.chosen[:], self.arr[:], self.flow[:])
        delay_pri = p.mode == DELAY
        limit = INF if p.mode == AREA else delay0
        for rnd in range(1, p.rounds):
            self.required(limit)
            self.est[:] = [max(1.0, float(r or b))
                           for r, b in zip(refs, self.base_est)]
            if rnd == p.rounds - 1 and p.rounds >= 3:
                self.exact_round(refs, delay_pri)
            else:
                self.enum_round(delay_pri, True)
            refs, area1, delay1 = self.cover()
            if p.mode == DELAY:
                ok = delay1 <= delay0 + _EPS and area1 <= area0 + _EPS
            else:
                ok = area1 <= area0 + _EPS and (p.mode == AREA
                                                or delay1 <= limit + _EPS)
            if ok:
                snapshot = (self.chosen[:], self.arr[:], self.flow[:])
                area0, delay0 = area1, delay1
            else:
                self.chosen[:], self.arr[:], self.flow[:] = snapshot
                refs, area0, delay0 = self.cover()
        return area0, delay0

    def cover(self) -> tuple:
        """(reference count per key, area, delay) of the chosen cover."""
        refs = [0] * len(self.chosen)
        stack = []
        for key in self.roots:
            refs[key] += 1
            if refs[key] == 1:
                stack.append(key)
        seen = set()
        area = 0
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            m = self.chosen[key]
            area += self.own_area(m)
            for ck in self.children(m):
                refs[ck] += 1
                stack.append(ck)
        delay = max((self.arr[key] for key in self.roots), default=0.0)
        return refs, area, delay

    def required(self, limit: float) -> None:
        """Required times over the current cover, POs at limit."""
        req = self.req
        req[:] = [INF] * len(req)
        for key in self.roots:
            req[key] = limit
        post = []
        marks = set()
        stack = [(key, False) for key in self.roots]
        while stack:
            key, expanded = stack.pop()
            if expanded:
                post.append(key)
            elif key not in marks:
                marks.add(key)
                stack.append((key, True))
                stack.extend((ck, False)
                             for ck in self.children(self.chosen[key]))
        for key in reversed(post):
            r = req[key]
            if math.isinf(r):
                continue
            for ck, d in self.edges(self.chosen[key]):
                req[ck] = min(req[ck], r - d)

    def cone_area(self, refs: list, key: int, step: int) -> float:
        """Reference (step 1) or dereference (step -1) the cone of key's
        choice: its area plus that of every child whose count becomes 1
        (or 0), recursively.  An explicit stack of (area, children) frames
        keeps a deep cover off the Python stack; each child's area is added
        to its parent's when its frame closes, as a recursive walk would."""
        chosen = self.chosen
        last = 1 if step > 0 else 0
        m = chosen[key]
        stack = [[self.own_area(m), iter(self.children(m))]]
        while True:
            top = stack[-1]
            for ck in top[1]:
                refs[ck] += step
                if refs[ck] == last:
                    m = chosen[ck]
                    stack.append([self.own_area(m), iter(self.children(m))])
                    break
            else:
                stack.pop()
                if not stack:
                    return top[0]
                stack[-1][0] += top[0]

    def exact_round(self, refs: list, delay_pri: bool) -> None:
        """Re-pick each referenced key by the area its choice adds to the
        cover (reference and dereference its exclusive cone)."""
        chosen = self.chosen
        for key in self.keys:
            if refs[key] <= 0:
                continue
            old = chosen[key]
            self.cone_area(refs, key, -1)
            bk = bm = None
            for m in self.cands(key):
                a = self.arrival(m)
                if a > self.req[key] + _EPS and m is not old:
                    continue
                chosen[key] = m
                ea = self.cone_area(refs, key, 1)
                self.cone_area(refs, key, -1)
                k2 = ((a, ea) if delay_pri else (ea, a)) + (self.tie(m),)
                if bk is None or k2 < bk:
                    bk, bm = k2, m
            chosen[key] = old if bm is None else bm
            self.cone_area(refs, key, 1)
            self.arr[key] = self.arrival(chosen[key])

    def no_cut(self, n: int) -> MapError:
        """The error for a gate whose pool is empty: k is below its arity
        and it has no smaller cut."""
        return MapError(
            f"node {n}: k={self.p.k} is below the arity "
            f"{len(self.net.fanins(n))} of its {self.net.kind(n)} gate and "
            f"it has no smaller cut")

    def fail_first(self, failed: dict) -> None:
        """Raise the error of the failed node that comes first in
        dependency order, the one a node-by-node round would meet first:
        a round goes on past failures, and whatever it computes for the
        nodes above one comes later in that order."""
        if failed:
            pos = {n: i for i, n in enumerate(self.order)}
            raise failed[min(failed, key=pos.__getitem__)]


# -- LUT mapping -------------------------------------------------------


class _LutCover(_Rounds):
    """K-LUT cost model: key = node, choice = cut, unit area and delay."""

    def __init__(self, cn: ChoiceNetwork, p: MapParams):
        super().__init__(cn, p, 1)
        net = self.net
        size = len(net)
        self.keys = self.order
        self.roots = [s.node for s in net.outputs if net.is_gate(s.node)]
        self.chosen: list = [None] * size
        self.arr = [0.0] * size
        self.flow = [0.0] * size
        self.base_est = self.fouts
        self.est = [max(1.0, f) for f in self.fouts]

    def own_area(self, c: tuple) -> int:
        return 1

    def children(self, c: tuple) -> list:
        return [x for x in c if self.net.is_gate(x)]

    def edges(self, c: tuple) -> list:
        return [(x, 1.0) for x in self.children(c)]

    def arrival(self, c: tuple) -> float:
        return 1.0 + max((self.arr[x] for x in c), default=-1.0)

    def tie(self, c: tuple) -> int:
        return len(c)

    def cands(self, n: int) -> list:
        return self.engine.cutsets[n][:-1]     # all but the trivial cut

    def enum_round(self, delay_pri: bool, constrained: bool) -> None:
        """Re-enumerate priority cuts with this round's cost key and pick
        each node's best feasible cut, one level at a time."""
        eng, cutsets, chosen = self.engine, self.engine.cutsets, self.chosen
        # per node, kept current as levels are picked; the extra last entry
        # is what a padding leaf reads
        arr = np.array(self.arr + [-1.0])
        flow = np.array(self.flow)
        est = np.array(self.est)
        share = np.append(flow / est, 0.0)
        slack = np.array(self.req) + _EPS

        def key(leaves, size):
            a = 1.0 + arr[leaves].max(axis=1)
            fl = 1.0 + _column_sum(share[leaves])
            return (a, fl, size) if delay_pri else (fl, a, size)

        failed = {}
        for lv in eng.round(key, self.p.l):
            a, fl = lv.key[:2] if delay_pri else lv.key[1::-1]
            nodes, count = lv.nodes, lv.count
            live = count > 0
            if not live.all():
                failed.update((n, self.no_cut(n)) for n in lv.empty)
                nodes, count = nodes[live], count[live]
            first = count.cumsum() - count
            pick = first
            if constrained:
                # the first cut meeting the required time, else the best
                at = np.where(a <= slack[lv.nodes[lv.owner]],
                              np.arange(len(a)), len(a))
                met = np.minimum.reduceat(at, first)
                pick = np.where(met < len(a), met, first)
            arr[nodes], flow[nodes] = a[pick], fl[pick]
            share[nodes] = fl[pick] / est[nodes]
            # no tables here: the engine composes those the cover reads
            for n, rank in zip(nodes.tolist(), (pick - first).tolist()):
                chosen[n] = cutsets[n][rank]
        self.fail_first(failed)
        self.arr[:] = arr[:-1].tolist()
        self.flow[:] = flow.tolist()


def _column_sum(x: np.ndarray) -> np.ndarray:
    """Row sums of x added column by column, left to right: the same
    floats as Python's sum over each row."""
    out = x[:, 0]
    for c in range(1, x.shape[1]):
        out = out + x[:, c]
    return out


def map_lut(cn: ChoiceNetwork, p: MapParams = MapParams()) -> MappedNetlist:
    if p.target != LUT:
        raise MapError("map_lut needs target=lut")
    if not 2 <= p.k <= 6:
        raise MapError("LUT size must be in [2, 6]")
    m = _LutCover(cn, p)
    m.run()
    return _extract_lut(m.net, m.chosen, m.engine.table, m.arr, m.roots)


def _extract_lut(net, best, table, arrival, po_gates) -> MappedNetlist:
    n_pis = len(net.pis)
    id_of: dict[int, int] = {pi: i for i, pi in enumerate(net.pis)}
    m = MappedNetlist(LUT, n_pis)
    counter = [n_pis]

    def emit(node: int) -> None:
        stack = [node]
        while stack:
            n = stack[-1]
            if n in id_of:
                stack.pop()
                continue
            pend = [x for x in best[n] if x not in id_of]
            if pend:
                stack.extend(pend)
                continue
            stack.pop()
            ins = tuple(id_of[x] for x in best[n])
            m.instances.append(Instance(counter[0], "lut", 1.0,
                                        table(n, best[n]), ins))
            id_of[n] = counter[0]
            counter[0] += 1

    def const_id() -> int:
        if 0 not in id_of:
            m.instances.append(Instance(counter[0], "lut", 1.0,
                                        TruthTable.const(False), ()))
            id_of[0] = counter[0]
            counter[0] += 1
        return id_of[0]

    for s in net.outputs:
        if net.is_const(s.node):
            m.outputs.append((const_id(), s.neg))
        else:
            if net.is_gate(s.node):
                emit(s.node)
            m.outputs.append((id_of[s.node], s.neg))
    m.stats = {
        "area": float(len(m.instances)),
        "delay": max((arrival[n] for n in po_gates), default=0.0),
        "edges": sum(len(i.ins) for i in m.instances),
    }
    return m


# -- cell library ------------------------------------------------------


class Cell(NamedTuple):
    name: str
    area: float
    tt: TruthTable
    pin_delays: tuple


class CellLibrary:
    """Cell set with NPN match tables.

    Text format, one cell per line:
        cell <name> <area> <hex-tt> <num-inputs> <pin-delay>...
    Comment lines start with '#'.  An inverter and both constants are
    mandatory; cells above six inputs are rejected.
    """

    def __init__(self, cells: list):
        self.cells = list(cells)
        self.inv: Optional[Cell] = None
        self.const0: Optional[Cell] = None
        self.const1: Optional[Cell] = None
        self._table: dict = {}
        self._queries: dict = {}
        self._shrunk: dict = {}
        var0 = TruthTable.var(0, 1)
        for cell in self.cells:
            v = cell.tt.var_count
            if v != len(cell.pin_delays):
                raise LibraryError(f"{cell.name}: pin delay count != inputs")
            if v == 0:
                if cell.tt.is_const0():
                    self.const0 = self.const0 or cell
                else:
                    self.const1 = self.const1 or cell
                continue
            if cell.tt.is_const0() or cell.tt.is_const1():
                raise LibraryError(f"{cell.name}: constant function with inputs")
            if v == 1:
                if cell.tt == ~var0 and (self.inv is None
                                         or cell.area < self.inv.area):
                    self.inv = cell
                continue
            canon = npn_canonize(cell.tt)
            key = (canon.tt.bits, v)
            self._table.setdefault(key, []).append((cell, canon.transform))
        if self.inv is None:
            raise LibraryError("library has no inverter")
        if self.const0 is None or self.const1 is None:
            raise LibraryError("library has no constant cells")

    @staticmethod
    def loads(text: str) -> "CellLibrary":
        cells = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] != "cell" or len(parts) < 5:
                raise LibraryError(f"line {ln}: expected "
                                   f"'cell name area tt inputs delays...'")
            name = parts[1]
            try:
                area = float(parts[2])
                v = int(parts[4])
                tt = TruthTable.from_hex(parts[3], v)
                delays = tuple(float(x) for x in parts[5:])
            except ValueError as e:
                raise LibraryError(f"line {ln}: {e}") from None
            if v > 6:
                raise LibraryError(f"line {ln}: {name} has {v} inputs (max 6)")
            if len(delays) != v:
                raise LibraryError(f"line {ln}: {name} needs {v} pin delays")
            cells.append(Cell(name, area, tt, delays))
        return CellLibrary(cells)

    @staticmethod
    def load(path) -> "CellLibrary":
        with open(path) as fh:
            return CellLibrary.loads(fh.read())

    def shrink(self, tt: TruthTable) -> tuple:
        """tt.shrink_to_support(), kept for every later mapping."""
        key = (tt.bits, tt.var_count)
        hit = self._shrunk.get(key)
        if hit is None:
            hit = self._shrunk[key] = tt.shrink_to_support()
        return hit

    def matches(self, tt: TruthTable):
        """(cell, pin binding, phase) triples realizing tt or its inverse.

        Binding t means cell pin i is driven by cut variable t.perm[i],
        complemented when bit i of t.neg is set.  phase False realizes tt
        itself, True its complement.
        """
        v = tt.var_count
        span = 1 << v
        qkey = (tt.bits & ((1 << span) - 1), v)
        hit = self._queries.get(qkey)
        if hit is not None:
            return hit
        canon = npn_canonize(tt)
        out = []
        for cell, tg in self._table.get((canon.tt.bits, v), []):
            t = compose(canon.transform.inverse(), tg)
            # the physical cell computes its function without t's output
            # negation, so fold t.out_neg into the provided phase
            realized = apply_npn(cell.tt, t)
            if realized == tt:
                out.append((cell, t, bool(t.out_neg)))
            elif realized == ~tt:
                out.append((cell, t, not t.out_neg))
        self._queries[qkey] = out
        return out


def default_cell_library() -> CellLibrary:
    import os

    path = os.path.join(os.path.dirname(__file__), "data", "tiny.lib")
    return CellLibrary.load(path)


# -- standard-cell mapping ---------------------------------------------


class _CMatch(NamedTuple):
    kind: str                # "cell" | "inv" | "wire" | "pi" | "const"
    cell: Optional[Cell]     # None for "wire" and "pi"
    pins: tuple              # keys 2 * node + phase, in cell pin order


class _CellCover(_Rounds):
    """Cell cost model: key = 2 * node + phase, choice = library match."""

    def __init__(self, cn: ChoiceNetwork, cl: CellLibrary, p: MapParams):
        super().__init__(cn, p, 2)
        net = self.net
        size = 2 * len(net)
        self.cl = cl
        self.keys = [2 * n + ph for n in self.order for ph in (0, 1)]
        self.roots = [2 * s.node + s.neg for s in net.outputs]
        self.chosen: list = [None] * size
        self.arr = [INF] * size
        self.flow = [INF] * size
        self.est = [1.0] * size
        self.base_est = [e for fo in self.fouts for e in (fo, 1)]
        self.alts: list = [()] * size
        # a cut's match list depends only on (node, leaf set)
        self.match_cache: dict[tuple, tuple] = {}
        self.chosen[0] = _CMatch("const", cl.const0, ())
        self.chosen[1] = _CMatch("const", cl.const1, ())
        self.arr[0] = self.arr[1] = 0.0
        self.flow[0], self.flow[1] = cl.const0.area, cl.const1.area
        invd = max(cl.inv.pin_delays)
        for pi in net.pis:
            self.chosen[2 * pi] = _CMatch("pi", None, ())
            self.chosen[2 * pi + 1] = _CMatch("inv", cl.inv, (2 * pi,))
            self.arr[2 * pi], self.arr[2 * pi + 1] = 0.0, invd
            self.flow[2 * pi], self.flow[2 * pi + 1] = 0.0, cl.inv.area
            self.est[2 * pi] = max(1.0, float(self.fouts[pi]))

    def own_area(self, m: _CMatch) -> float:
        return m.cell.area if m.cell is not None else 0.0

    def children(self, m: _CMatch) -> tuple:
        return m.pins

    def edges(self, m: _CMatch):
        if m.cell is None:
            return ((k, 0.0) for k in m.pins)
        return zip(m.pins, m.cell.pin_delays)

    def arrival(self, m: _CMatch) -> float:
        return max((self.arr[k] + d for k, d in self.edges(m)), default=0.0)

    def flow_of(self, m: _CMatch) -> float:
        return self.own_area(m) + sum(self.flow[k] / self.est[k]
                                      for k in m.pins)

    def cands(self, key: int) -> list:
        # never pick an inverter when the other phase already is one
        other = self.chosen[key ^ 1]
        two_invs = other is not None and other.kind == "inv"
        return [m for m in self.alts[key]
                if not (two_invs and m.kind == "inv")]

    def matches_for_cut(self, leaves: tuple, tt: TruthTable):
        """Candidate matches per phase for one cut of a node."""
        out: list = [[], []]
        tt_s, sup = self.cl.shrink(tt)
        v = len(sup)
        if v == 0:
            one = 1 if tt_s.is_const1() else 0
            out[0].append(_CMatch("wire", None, (one,)))
            out[1].append(_CMatch("wire", None, (1 - one,)))
            return out
        sub = [leaves[i] for i in sup]
        if v == 1:
            flip = 1 if tt_s == ~TruthTable.var(0, 1) else 0
            for phase in (0, 1):
                out[phase].append(
                    _CMatch("wire", None, (2 * sub[0] + (phase ^ flip),)))
            return out
        for cell, t, neg in self.cl.matches(tt_s):
            pins = tuple(2 * sub[t.perm[i]] + ((t.neg >> i) & 1)
                         for i in range(v))
            out[1 if neg else 0].append(_CMatch("cell", cell, pins))
        return out

    def enum_round(self, delay_pri: bool, constrained: bool) -> None:
        eng, arr, flow = self.engine, self.arr, self.flow
        inv = self.cl.inv
        # arrival and flow of each node's better phase, kept current as
        # levels are picked; the extra last entry is what a padding leaf
        # reads
        best_arr = np.append(np.minimum(arr[0::2], arr[1::2]), 0.0)
        best_flow = np.append(np.minimum(flow[0::2], flow[1::2]), 0.0)

        def score(leaves, size):
            a = best_arr[leaves].max(axis=1)
            f = _column_sum(best_flow[leaves])
            return (a, f, size) if delay_pri else (f, a, size)

        failed = {}
        # the stored lists keep the elementary fanin cut so a host
        # primitive is always matchable; without it a budgeted list can
        # end up with only functions the library cannot realize
        for lv in eng.round(score, self.p.l, elem=True):
            empty = lv.empty
            failed.update((n, self.no_cut(n)) for n in empty)
            for n in lv.node_list:
                if empty and n in empty:
                    continue
                per_phase: list = [[], []]
                for lvs in eng.cutsets[n][:-1]:
                    pm = self.match_cache.get((n, lvs))
                    if pm is None:
                        pm = self.match_cache[(n, lvs)] = \
                            self.matches_for_cut(lvs, eng.table(n, lvs))
                    per_phase[0].extend(pm[0])
                    per_phase[1].extend(pm[1])

                # per phase: the best match meeting the required time, else
                # the best match
                picked = [None, None]
                for phase in (0, 1):
                    opts = [(self.arrival(m), self.flow_of(m), m)
                            for m in per_phase[phase]]
                    feasible = [o for o in opts if not constrained
                                or o[0] <= self.req[2 * n + phase] + _EPS]
                    if feasible or opts:
                        picked[phase] = min(
                            feasible or opts,
                            key=lambda o: (o[:2] if delay_pri
                                           else (o[1], o[0])))
                if picked[0] is None and picked[1] is None:
                    failed[n] = LibraryError(
                        f"no cell matches any cut function of node {n}")
                    continue
                # realize a missing or expensive phase through an inverter
                invs = [None, None]
                for phase in (0, 1):
                    other = picked[1 - phase]
                    if other is None:
                        continue
                    m = _CMatch("inv", inv, (2 * n + 1 - phase,))
                    a, f = other[0] + max(inv.pin_delays), inv.area + other[1]
                    cur = picked[phase]
                    if cur is None or ((a, f) < cur[:2] if delay_pri
                                       else (f, a) < (cur[1], cur[0])):
                        invs[phase] = (a, f, m)
                for phase in (0, 1):
                    key = 2 * n + phase
                    arr[key], flow[key], self.chosen[key] = (
                        invs[phase] or picked[phase])
                    self.alts[key] = tuple(per_phase[phase]) + (
                        _CMatch("inv", inv, (key ^ 1,)),)
                best_arr[n] = min(arr[2 * n], arr[2 * n + 1])
                best_flow[n] = min(flow[2 * n], flow[2 * n + 1])
        self.fail_first(failed)


def map_cells(cn: ChoiceNetwork, cl: CellLibrary,
              p: MapParams = MapParams(k=4, target=CELL)) -> MappedNetlist:
    if p.target != CELL:
        raise MapError("map_cells needs target=cell")
    if not 2 <= p.k <= 6:
        raise MapError("cut size must be in [2, 6]")
    m = _CellCover(cn, cl, p)
    _, delay = m.run()
    return _extract_cells(m.net, m.chosen, m.roots, delay)


def _extract_cells(net, chosen, roots, delay) -> MappedNetlist:
    n_pis = len(net.pis)
    out = MappedNetlist(CELL, n_pis)
    id_of: dict = {2 * pi: i for i, pi in enumerate(net.pis)}
    counter = [n_pis]

    def realize(key) -> int:
        stack = [key]
        while stack:
            k = stack[-1]
            if k in id_of:
                stack.pop()
                continue
            m = chosen[k]
            pend = [ck for ck in m.pins if ck not in id_of]
            if pend:
                stack.extend(pend)
                continue
            stack.pop()
            if m.kind == "wire":
                id_of[k] = id_of[m.pins[0]]
                continue
            ins = tuple(id_of[ck] for ck in m.pins)
            out.instances.append(Instance(counter[0], m.cell.name,
                                          m.cell.area, m.cell.tt, ins))
            id_of[k] = counter[0]
            counter[0] += 1
        return id_of[key]

    for key in roots:
        out.outputs.append((realize(key), False))
    out.stats = {
        "area": sum(i.area for i in out.instances),
        "delay": delay,
        "edges": sum(len(i.ins) for i in out.instances),
    }
    return out
