"""Choice-aware cut-based technology mapping for LUT and cell targets.

The mapper covers a choice network with K-input LUTs or library cells.
Cut pools, member-cut pooling with the phase folded into the table, and
truth-table composition all belong to `cuts.CutEngine`, which builds the
pools of a whole dependency level at once on numpy arrays and stores each
cut with the table its round derived, as a 64-bit word, so a
representative sees its own cuts plus every class member's cuts and the
dynamic program picks whichever structure maps cheapest.  This module
holds one round driver (`_Rounds`): a delay round establishes optimal
arrivals, then area-flow and exact-area rounds recover area under
required times, each kept only if the cover does not get worse.  LUT and
cell mapping are two cost models over it (`_LutCover`, `_CellCover`).  Each hands the engine a vectorized
sort key over per-node values kept current level by level (LUTs: arrival
and area flow per fanout estimate; cells: the better phase's arrival and
area flow), and the engine stores each node's best `l` cuts.  Both then
pick a whole level at once.  The cover's area, its required times and
both netlist extractions walk the chosen cover one way (`_Rounds.walk`);
the exact-area round compares a key's old choice with its alternatives
by value.  A LUT pick is a stored cut with its table word, so a cover
carries its own tables, also one restored from an earlier round.  The
cell mapper looks up each stored cut's word in the library's match
templates (one per function: each match's phase, cell and pin-to-leaf
binding), scores every (cut, match) row of the level on arrays, and
picks per node phase the first best match meeting the required time,
with an inverter where the other phase is cheaper; it keeps a host
gate's elementary fanin cut stored so that the gate is always matchable.
Match objects are made only for the picks and for the alternatives the
exact-area round reads.  A round that meets a node it cannot cover
finishes, then reports the failing node that comes first in dependency
order.
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
from .verify import NOT_EQUIVALENT, Verdict, compare

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


def cover_check(m: MappedNetlist, src) -> Verdict:
    """Legal-cover plus functional-equivalence check against the source,
    as a `verify.compare` verdict: `equivalent` (a proof) up to
    EXHAUSTIVE_PI_LIMIT inputs, at most `unknown` above.  A cover that
    is not a legal netlist over the source's interface is
    `not-equivalent`."""
    if not _check_structure(m) or m.n_pis != len(src.pis) \
            or len(m.outputs) != len(src.outputs):
        return Verdict(NOT_EQUIVALENT, None, 0)
    return compare(m.n_pis, lambda words, width: (
        m.simulate(words, width),
        src.output_values(dict(zip(src.pis, words)), width)))


# -- round driver ------------------------------------------------------


def _dep_order(cn: ChoiceNetwork):
    """Gate order where all cut leaves of a node, including leaves inside
    member cones, come before the node itself."""
    net = cn.base
    fanins, members = net.fanins, cn.classes.get
    # 1 while a gate's dependencies are pending, 2 once it is ordered
    state = [0 if net.is_gate(n) else 2 for n in range(len(net))]
    order: list[int] = []
    for start in range(len(net)):
        if state[start] == 2:
            continue
        stack = [start]
        while stack:
            n = stack[-1]
            if state[n] == 2:
                stack.pop()
                continue
            pend = [f[0] for f in fanins(n) if state[f[0]] != 2]
            ms = members(n)
            if ms:
                pend += [d for d in ms if state[d] != 2]
            if pend:
                if state[n] == 1 and any(state[d] == 1 for d in pend):
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
    of a key, which exact_round compares with the old choice by value).
    `walk` lists the chosen cover for its area, required times and both
    netlist extractions.
    """

    def __init__(self, cn: ChoiceNetwork, p: MapParams, width: int):
        net = cn.base
        self.net, self.p = net, p
        self.order = _dep_order(cn)
        self.engine = CutEngine(net, p.k, {
            r: [(m, cn.phase[m]) for m in ms]
            for r, ms in cn.classes.items()}, self.order)
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
            est = [float(r or b) for r, b in zip(refs, self.base_est)]
            self.est[:] = [e if e > 1.0 else 1.0 for e in est]
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

    def walk(self, roots, seen: set) -> list:
        """The cover's keys under roots that are not in seen, each after
        the keys its choice references, in the order a depth-first walk
        from each root in turn finishes them (a choice's children last to
        first); adds them to seen.  An explicit stack keeps a deep cover
        off the Python stack."""
        chosen, children = self.chosen, self.children
        out = []
        for root in roots:
            if root in seen:
                continue
            seen.add(root)
            stack = [(root, reversed(children(chosen[root])))]
            while stack:
                key, rest = stack[-1]
                for ck in rest:
                    if ck not in seen:
                        seen.add(ck)
                        stack.append((ck, reversed(children(chosen[ck]))))
                        break
                else:
                    stack.pop()
                    out.append(key)
        return out

    def cover(self) -> tuple:
        """(reference count per key, area, delay) of the chosen cover."""
        refs = [0] * len(self.chosen)
        for key in self.roots:
            refs[key] += 1
        area = 0
        for key in self.walk(self.roots, set()):
            m = self.chosen[key]
            area += self.own_area(m)
            for ck in self.children(m):
                refs[ck] += 1
        delay = max((self.arr[key] for key in self.roots), default=0.0)
        return refs, area, delay

    def required(self, limit: float) -> None:
        """Required times over the current cover, POs at limit."""
        req = self.req
        req[:] = [INF] * len(req)
        for key in self.roots:
            req[key] = limit
        for key in reversed(self.walk(self.roots, set())):
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
        cover (reference and dereference its exclusive cone), among the
        alternatives that meet its required time.  The old choice is
        compared by value like any other; it meets the required time,
        since required times follow the cover's edge delays and a child
        changes only to a choice meeting its own.  A key with no such
        alternative keeps its old choice."""
        chosen = self.chosen
        for key in self.keys:
            if refs[key] <= 0:
                continue
            old = chosen[key]
            self.cone_area(refs, key, -1)
            bk = bm = None
            for m in self.cands(key):
                a = self.arrival(m)
                if a > self.req[key] + _EPS:
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
    """K-LUT cost model: key = node, choice = (leaves, table word) of a
    stored cut, unit area and delay."""

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
        self.est = [f if f > 1.0 else 1.0 for f in self.fouts]

    def own_area(self, c: tuple) -> int:
        return 1

    def children(self, c: tuple) -> list:
        return [x for x in c[0] if self.net.is_gate(x)]

    def edges(self, c: tuple) -> list:
        return [(x, 1.0) for x in self.children(c)]

    def arrival(self, c: tuple) -> float:
        return 1.0 + max((self.arr[x] for x in c[0]), default=-1.0)

    def tie(self, c: tuple) -> int:
        return len(c[0])

    def cands(self, n: int) -> list:
        """n's stored cuts but the trivial one, with their words."""
        eng = self.engine
        return list(zip(eng.cuts(n), eng.words(n)))[:-1]

    def enum_round(self, delay_pri: bool, constrained: bool) -> None:
        """Re-enumerate priority cuts with this round's cost key and pick
        each node's best feasible cut, one level at a time."""
        eng, chosen = self.engine, self.chosen
        # per node, kept current as levels are picked; the extra last entry
        # is what a padding leaf reads
        arr = np.array(self.arr + [-1.0])
        flow = np.array(self.flow)
        est = np.array(self.est)
        share = np.append(flow / est, 0.0)
        slack = np.array(self.req) + _EPS

        def key(leaves, size):
            a = 1.0 + np.maximum.reduce(arr[leaves], axis=1)
            fl = 1.0 + _column_sum(share[leaves])
            return (a, fl, size) if delay_pri else (fl, a, size)

        failed = {}
        for lv in eng.round(key, self.p.l):
            a, fl = lv.key[:2] if delay_pri else lv.key[1::-1]
            nodes, count = lv.nodes, lv.count
            if np.count_nonzero(count) < count.size:
                failed.update((n, self.no_cut(n)) for n in lv.empty)
                live = count > 0
                nodes, count = nodes[live], count[live]
            first = count.cumsum() - count
            pick = first
            if constrained:
                # the first cut meeting the required time, else the best
                n = a.size
                at = np.where(a <= slack[lv.nodes[lv.owner]], np.arange(n), n)
                met = np.minimum.reduceat(at, first)
                pick = np.where(met < n, met, first)
            arr[nodes], flow[nodes] = a[pick], fl[pick]
            share[nodes] = fl[pick] / est[nodes]
            for n, row, z, w in zip(nodes.tolist(), lv.leaves[pick].tolist(),
                                    lv.size[pick].tolist(),
                                    lv.tt[pick].tolist()):
                chosen[n] = (tuple(row[:z]), w)
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
    _, delay = m.run()
    net, chosen = m.net, m.chosen
    n_pis = len(net.pis)
    out = MappedNetlist(LUT, n_pis)
    id_of = {pi: i for i, pi in enumerate(net.pis)}
    seen = set(id_of) | {0}
    for s in net.outputs:
        if net.is_const(s.node) and 0 not in id_of:
            id_of[0] = n_pis + len(out.instances)
            out.instances.append(Instance(id_of[0], "lut", 1.0,
                                          TruthTable.const(False), ()))
        for n in m.walk([s.node], seen):
            leaves, word = chosen[n]
            id_of[n] = n_pis + len(out.instances)
            out.instances.append(Instance(
                id_of[n], "lut", 1.0, TruthTable(word, len(leaves)),
                tuple(id_of[x] for x in leaves)))
        out.outputs.append((id_of[s.node], s.neg))
    out.stats = {"area": float(len(out.instances)), "delay": delay,
                 "edges": sum(len(i.ins) for i in out.instances)}
    return out


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
        # per arity, the cells of each NPN class: canonical table -> list
        # of (cell, transform)
        self._table: dict = {}
        # match templates of cut functions, see templates()
        self._pins = max([len(c.pin_delays) for c in self.cells] + [1])
        self._tpl: dict = {}
        self.tpl_matches: list = []
        self.tpl_first = np.zeros(0, np.int64)
        self.tpl_count = np.zeros(0, np.int64)
        self.match_phase = np.zeros(0, np.int64)
        self.match_area = np.zeros(0)
        self.match_pin = np.zeros((0, self._pins), np.int64)
        self.match_comp = np.zeros((0, self._pins), np.int64)
        self.match_delay = np.zeros((0, self._pins))
        self.match_info: list = []
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
            self._table.setdefault(v, {}).setdefault(
                canon.tt.bits, []).append((cell, canon.transform))
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

    def matches(self, tt: TruthTable):
        """(cell, pin binding, phase) triples realizing tt or its inverse.

        Binding t means cell pin i is driven by cut variable t.perm[i],
        complemented when bit i of t.neg is set.  phase False realizes tt
        itself, True its complement.
        """
        by_class = self._table.get(tt.var_count)
        if by_class is None:
            return []
        canon = npn_canonize(tt)
        out = []
        for cell, tg in by_class.get(canon.tt.bits, []):
            t = compose(canon.transform.inverse(), tg)
            # the physical cell computes its function without t's output
            # negation, so fold t.out_neg into the provided phase
            realized = apply_npn(cell.tt, t)
            if realized == tt:
                out.append((cell, t, bool(t.out_neg)))
            elif realized == ~tt:
                out.append((cell, t, not t.out_neg))
        return out

    def template(self, bits: int, v: int) -> int:
        """Id of the match template of the function with table word bits
        over v cut leaves.  tpl_matches[id] lists its matches as
        (phase, kind, cell, pins) tuples, each phase's in the order a
        node's match list takes them; a pin is (i, complement): cut leaf
        i drives it, or the constant node for i = _PIN_CONST.  Phase 0
        realizes the function, 1 its complement."""
        t = self._tpl.get((bits, v))
        if t is None:
            t = self._tpl[(bits, v)] = len(self.tpl_matches)
            self.tpl_matches.append(self._matches_of(TruthTable(bits, v)))
        return t

    def _matches_of(self, tt: TruthTable) -> list:
        tt_s, sup = tt.shrink_to_support()
        v = len(sup)
        if v == 0:
            one = 1 if tt_s.is_const1() else 0
            return [(0, "wire", None, ((_PIN_CONST, one),)),
                    (1, "wire", None, ((_PIN_CONST, 1 - one),))]
        if v == 1:
            flip = 1 if tt_s == ~TruthTable.var(0, 1) else 0
            return [(ph, "wire", None, ((sup[0], ph ^ flip),))
                    for ph in (0, 1)]
        return [(1 if neg else 0, "cell", cell,
                 tuple((sup[t.perm[i]], (t.neg >> i) & 1)
                       for i in range(v)))
                for cell, t, neg in self.matches(tt_s)]

    def templates(self, words: list, sizes: list) -> np.ndarray:
        """Template ids of cut functions (table words over sizes leaves).
        Template t's matches are rows tpl_first[t] .. tpl_first[t] +
        tpl_count[t] - 1 of the match_* arrays: phase, cell area, and per
        pin (padded with _PIN_PAD) the cut leaf, complement and delay;
        match_info holds each row's kind, cell and pin count."""
        get = self._tpl.get
        ids = [get(key) for key in zip(words, sizes)]
        if None in ids:
            known = len(self.tpl_matches)
            ids = [self.template(b, v) if t is None else t
                   for t, b, v in zip(ids, words, sizes)]
            self._fill(known)
        return np.array(ids, np.int64)

    def _fill(self, lo: int) -> None:
        """Append the match rows of templates lo and up to the arrays."""
        new = self.tpl_matches[lo:]
        count = np.array([len(ms) for ms in new], np.int64)
        rows = [m for ms in new for m in ms]
        pin = np.full((len(rows), self._pins), _PIN_PAD, np.int64)
        comp = np.zeros((len(rows), self._pins), np.int64)
        delay = np.zeros((len(rows), self._pins))
        self.match_info += [(kind, cell, len(pins))
                            for _, kind, cell, pins in rows]
        for r, (_, _, cell, pins) in enumerate(rows):
            pin[r, :len(pins)] = [x for x, _ in pins]
            comp[r, :len(pins)] = [c for _, c in pins]
            if cell is not None:
                delay[r, :len(pins)] = cell.pin_delays
        self.tpl_first = np.concatenate((
            self.tpl_first, len(self.match_area) + count.cumsum() - count))
        self.tpl_count = np.concatenate((self.tpl_count, count))
        self.match_phase = np.concatenate((self.match_phase, np.array(
            [ph for ph, _, _, _ in rows], np.int64)))
        self.match_area = np.concatenate((self.match_area, np.array(
            [0.0 if cell is None else cell.area for _, _, cell, _ in rows],
            float)))
        self.match_pin = np.concatenate((self.match_pin, pin))
        self.match_comp = np.concatenate((self.match_comp, comp))
        self.match_delay = np.concatenate((self.match_delay, delay))


# template pins that read the constant node and that pad a short pin list
_PIN_CONST, _PIN_PAD = -2, -1
_PHASES = np.arange(2)


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

    def cands(self, key: int) -> list:
        """The key's matches over its node's stored cuts, in the order the
        last round read them, then an inverter from the other phase; never
        an inverter when the other phase already is one."""
        n, phase = key >> 1, key & 1
        out = []
        eng = self.engine
        for leaves, word in zip(eng.cuts(n)[:-1], eng.words(n)[:-1]):
            ms = self.cl.tpl_matches[self.cl.template(word, len(leaves))]
            out += [_CMatch(kind, cell, tuple(
                2 * (leaves[x] if x >= 0 else 0) + c for x, c in pins))
                for ph, kind, cell, pins in ms if ph == phase]
        other = self.chosen[key ^ 1]
        if other is None or other.kind != "inv":
            out.append(_CMatch("inv", self.cl.inv, (key ^ 1,)))
        return out

    def enum_round(self, delay_pri: bool, constrained: bool) -> None:
        """Re-enumerate priority cuts, match every stored cut of a level
        and pick each key's best match, a whole level at a time."""
        eng, cl, chosen = self.engine, self.cl, self.chosen
        inv, invd = cl.inv, max(cl.inv.pin_delays)
        pad = len(self.net)
        # per key, kept current as levels are picked; the extra last entry
        # is what a padding pin reads (key 2 * pad)
        arr = np.array(self.arr + [-INF])
        flow = np.array(self.flow)
        est = np.array(self.est)
        share = np.append(flow / est, 0.0)
        slack = np.array(self.req) + _EPS
        # arrival and flow of each node's better phase; the extra last
        # entry is what a padding leaf reads
        best_arr = np.append(np.minimum(arr[0:-1:2], arr[1::2]), 0.0)
        best_flow = np.append(np.minimum(flow[0::2], flow[1::2]), 0.0)

        def score(leaves, size):
            a = np.maximum.reduce(best_arr[leaves], axis=1)
            f = _column_sum(best_flow[leaves])
            return (a, f, size) if delay_pri else (f, a, size)

        failed = {}
        # the stored lists keep the elementary fanin cut so a host
        # primitive is always matchable; without it a budgeted list can
        # end up with only functions the library cannot realize
        for lv in eng.round(score, self.p.l, elem=True):
            n_lv = lv.count.size
            if np.count_nonzero(lv.count) < n_lv:
                failed.update((n, self.no_cut(n)) for n in lv.empty)
            if not lv.tt.size:
                continue
            # one row per (stored cut, match), grouped by cut
            tid = cl.templates(lv.tt.tolist(), lv.size.tolist())
            cnt = cl.tpl_count[tid]
            row = np.arange(tid.size).repeat(cnt)
            mi = np.arange(row.size) + (cl.tpl_first[tid] - cnt.cumsum()
                                        + cnt).repeat(cnt)
            # pin keys, 2 * node + complement: a cut leaf, the constant
            # node or the padding node
            node = np.empty((tid.size, lv.leaves.shape[1] + 2), np.int64)
            node[:, :-2], node[:, -2], node[:, -1] = lv.leaves, 0, pad
            pk = 2 * node[row[:, None], cl.match_pin[mi]] + cl.match_comp[mi]
            a = np.maximum.reduce(arr[pk] + cl.match_delay[mi], axis=1)
            f = cl.match_area[mi] + _column_sum(share[pk])
            j = lv.cut_owner[row]
            key = 2 * lv.nodes[j] + cl.match_phase[mi]
            # per key, the first best match meeting the required time,
            # else the first best
            cols = (f, a, key) if delay_pri else (a, f, key)
            if constrained:
                cols = cols[:2] + (a > slack[key], key)
            o = np.lexsort(cols)
            ko = key[o]
            head = np.empty(o.shape, bool)
            head[:1] = True
            np.not_equal(ko[1:], ko[:-1], out=head[1:])
            pick = o[head]
            # per node and phase: the pick's row, arrival and flow
            jp = j[pick], ko[head] & 1
            at = np.full((n_lv, 2), -1)
            at[jp] = pick
            has = at >= 0
            pa, pf = val = np.full((2, n_lv, 2), INF)
            val[:, jp[0], jp[1]] = a[pick], f[pick]
            # realize a missing or costlier phase through an inverter
            ia, iff = pa[:, ::-1] + invd, inv.area + pf[:, ::-1]
            if delay_pri:
                better = (ia < pa) | ((ia == pa) & (iff < pf))
            else:
                better = (iff < pf) | ((iff == pf) & (ia < pa))
            use = has[:, ::-1] & (~has | better)
            fa, ff = np.where(use, ia, pa), np.where(use, iff, pf)
            ok = has[:, 0] | has[:, 1]
            if np.count_nonzero(ok) < n_lv:
                for n in lv.nodes[~ok & (lv.count > 0)].tolist():
                    failed[n] = LibraryError(
                        f"no cell matches any cut function of node {n}")
                fa, ff, use, at = fa[ok], ff[ok], use[ok], at[ok]
            nodes = lv.nodes[ok]
            keys = 2 * nodes[:, None] + _PHASES
            arr[keys], flow[keys] = fa, ff
            share[keys] = ff / est[keys]
            best_arr[nodes] = np.minimum(fa[:, 0], fa[:, 1])
            best_flow[nodes] = np.minimum(ff[:, 0], ff[:, 1])
            # match objects for the picks only
            at = at.ravel()
            for key, inv_, m, pins in zip(
                    keys.ravel().tolist(), use.ravel().tolist(),
                    mi[at].tolist(), pk[at].tolist()):
                if inv_:
                    chosen[key] = _CMatch("inv", inv, (key ^ 1,))
                else:
                    kind, cell, npins = cl.match_info[m]
                    chosen[key] = _CMatch(kind, cell, tuple(pins[:npins]))
        self.fail_first(failed)
        self.arr[:] = arr[:-1].tolist()
        self.flow[:] = flow.tolist()


def map_cells(cn: ChoiceNetwork, cl: CellLibrary,
              p: MapParams = MapParams(k=4, target=CELL)) -> MappedNetlist:
    if p.target != CELL:
        raise MapError("map_cells needs target=cell")
    if not 2 <= p.k <= 6:
        raise MapError("cut size must be in [2, 6]")
    m = _CellCover(cn, cl, p)
    _, delay = m.run()
    n_pis = len(m.net.pis)
    out = MappedNetlist(CELL, n_pis)
    id_of = {2 * pi: i for i, pi in enumerate(m.net.pis)}
    for key in m.walk(m.roots, set(id_of)):
        c = m.chosen[key]
        if c.kind == "wire":
            id_of[key] = id_of[c.pins[0]]
            continue
        id_of[key] = n_pis + len(out.instances)
        out.instances.append(Instance(id_of[key], c.cell.name, c.cell.area,
                                      c.cell.tt,
                                      tuple(id_of[ck] for ck in c.pins)))
    out.outputs = [(id_of[key], False) for key in m.roots]
    out.stats = {"area": sum(i.area for i in out.instances), "delay": delay,
                 "edges": sum(len(i.ins) for i in out.instances)}
    return out
