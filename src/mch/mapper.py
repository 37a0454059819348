"""Choice-aware cut-based technology mapping for LUT and cell targets.

The mapper covers a choice network with K-input LUTs or library cells.
Cut pools, member-cut pooling with the phase folded into the table, and
truth-table composition all belong to `cuts.CutEngine`, which builds the
pools of a whole dependency level at once on numpy arrays (one walk,
`ChoiceNetwork.order`, gives the rounds' key order and the engine's levels
over fanins plus members) and stores each cut with the table its round
derived, as a 64-bit word, so a representative sees its own cuts plus every
class member's cuts and the dynamic program picks whichever structure maps
cheapest.  This module holds one round driver (`_Rounds`): a delay round
establishes optimal arrivals, then area-flow and exact-area rounds recover
area under required times, each kept only if the cover does not get worse.
LUT and cell mapping are two cost models over it (`_LutCover`,
`_CellCover`).  Each hands the engine a vectorized sort key over per-node
values kept current level by level (LUTs: arrival and area flow per fanout
estimate; cells: the better phase's arrival and area flow), and the engine
stores each node's best `l` cuts.  Both then pick a whole level at once
from the level's stored cuts; the exact-area round reads a key's
alternatives as its node's (leaves, table word) pairs (`CutEngine.rows`).
The cover's area, its required times and both netlist extractions walk the
chosen cover one way (`_Rounds.walk`); the exact-area round compares a
key's old choice with its alternatives by value.  A LUT pick is a stored
cut with its table word, so a cover carries its own tables, also one
restored from an earlier round.  The cell mapper looks up each stored cut's
word in the library's match templates (`CellLibrary.templates`: one per
function, its matches stored once, as rows of `match_rows`), scores every
(cut, match) row of the level on arrays, and picks per node phase the first
best match meeting the required time, with an inverter where the other
phase is cheaper; it keeps a host gate's elementary fanin cut stored so
that the gate is always matchable.  Match objects are made from
`match_rows` only for the picks and for the alternatives the exact-area
round reads.  A round stops at the first level part that holds a node it
cannot cover and names the first such node there: one whose pool is empty,
else (cells) one whose stored cuts match no cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .choices import ChoiceError, ChoiceNetwork
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


def _check_run(p: MapParams) -> None:
    """What both mappers require of l, rounds and mode, checked before
    any work."""
    if p.l < 1:
        raise MapError(f"cuts kept per node must be >= 1, got l={p.l}")
    if p.rounds < 1:
        raise MapError(f"rounds must be >= 1, got {p.rounds}")
    if p.mode not in (DELAY, AREA, BALANCED):
        raise MapError(f"unknown mapping mode {p.mode!r}")


class _Rounds:
    """Delay, area-flow and exact-area rounds with rollback, over a cost
    model supplied by a subclass.

    The model works on integer keys: a node for LUT mapping, a node phase
    for cell mapping.  It fills one slot per key in `chosen`, `arr`, `flow`,
    `est` and `base_est` (the fanout estimate of a key outside the cover),
    lists the PO keys in `roots` and the decision keys in dependency order
    in `keys`, and supplies enum_round (re-enumerate cuts and pick per
    key), plus, per choice: own_area, children (keys it references),
    edges ((key, delay) pairs, read by `arrival` and `required`), tie, and
    cands (the alternatives of a key, which exact_round compares with the
    old choice by value).  `walk` lists the chosen cover for its area,
    required times and both netlist extractions.
    """

    def __init__(self, cn: ChoiceNetwork, p: MapParams, width: int):
        net = cn.base
        self.net, self.p = net, p
        try:
            self.order, levels = cn.order()
        except ChoiceError as e:
            raise MapError(str(e)) from None
        self.engine = CutEngine(net, p.k, {
            r: [(m, cn.phase[m]) for m in ms]
            for r, ms in cn.classes.items()}, levels)
        self.req = [INF] * (width * len(net))
        # fanout estimates from the structural cone only, so member gates
        # do not inflate the sharing estimate of original nodes
        outs = np.array([s.node for s in net.outputs], np.int64)
        cone = np.fromiter(net.tfi(outs.tolist(), gates_only=True), np.int64)
        fan = np.array(net.columns()[1:], np.int64)[:, cone] >> 1
        # node 0 only pads a 2-input gate: strash folds constant fanins
        self.fouts = np.bincount(np.append(fan[fan > 0], outs),
                                 minlength=len(net)).tolist()

    def tie(self, m) -> int:
        return 0

    def arrival(self, m) -> float:
        return max((self.arr[k] + d for k, d in self.edges(m)), default=0.0)

    def levels(self, key, elem: bool = False):
        """The levels of one engine round over key (`CutEngine.round`), up
        to the first level part that holds a gate whose pool is empty (k
        is below its arity and it has no smaller cut): raises for it."""
        for lv in self.engine.round(key, self.p.l, elem):
            if not lv.full:
                n = lv.empty[0]
                raise MapError(
                    f"node {n}: k={self.p.k} is below the arity "
                    f"{len(self.net.fanins(n))} of its {self.net.kind(n)} "
                    f"gate and it has no smaller cut")
            yield lv

    def run(self) -> tuple:
        """All rounds of p; returns the accepted cover's (area, delay).

        An area-flow round whose `est` and `req` equal those of the one
        before it is skipped: `enum_round` reads no other state (every
        key's `arr` and `flow` is rewritten at its level before a fanout
        reads it), so it would pick the same cover and meet the same
        accept or rollback verdict."""
        p = self.p
        self.enum_round(True, False)
        refs, area0, delay0 = self.cover()
        snapshot = (self.chosen[:], self.arr[:], self.flow[:])
        delay_pri = p.mode == DELAY
        limit = INF if p.mode == AREA else delay0
        last = None  # (est, req) of the last area-flow round
        for rnd in range(1, p.rounds):
            self.required(limit)
            est = [float(r or b) for r, b in zip(refs, self.base_est)]
            self.est[:] = [e if e > 1.0 else 1.0 for e in est]
            if rnd == p.rounds - 1 and p.rounds >= 3:
                self.exact_round(refs, delay_pri)
            else:
                if last == (self.est, self.req):
                    continue
                last = (self.est[:], self.req[:])
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

    def cone_area(self, refs: list, key: int, step: int) -> tuple:
        """Reference (step 1) or dereference (step -1) the cone of key's
        choice: its area plus that of every child whose count becomes 1
        (or 0), recursively.  Returns the area and the keys whose counts
        it changed, one entry per change, so that a reference can be
        undone without a second walk.  An explicit stack of (area,
        children) frames keeps a deep cover off the Python stack; each
        child's area is added to its parent's when its frame closes, as a
        recursive walk would."""
        chosen = self.chosen
        last = 1 if step > 0 else 0
        m = chosen[key]
        stack = [[self.own_area(m), iter(self.children(m))]]
        touched = []
        while True:
            top = stack[-1]
            for ck in top[1]:
                refs[ck] += step
                touched.append(ck)
                if refs[ck] == last:
                    m = chosen[ck]
                    stack.append([self.own_area(m), iter(self.children(m))])
                    break
            else:
                stack.pop()
                if not stack:
                    return top[0], touched
                stack[-1][0] += top[0]

    def exact_round(self, refs: list, delay_pri: bool) -> None:
        """Re-pick each referenced key by the area its choice adds to the
        cover (reference its exclusive cone, then take back the counts
        that walk raised), among the alternatives that meet its required
        time.  The old choice is compared by value like any other; it
        meets the required time, since required times follow the cover's
        edge delays and a child changes only to a choice meeting its own.
        A key with no such alternative keeps its old choice."""
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
                ea, touched = self.cone_area(refs, key, 1)
                for ck in touched:
                    refs[ck] -= 1
                k2 = ((a, ea) if delay_pri else (ea, a)) + (self.tie(m),)
                if bk is None or k2 < bk:
                    bk, bm = k2, m
            chosen[key] = old if bm is None else bm
            self.cone_area(refs, key, 1)
            self.arr[key] = self.arrival(chosen[key])


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
        self.gate = [net.is_gate(n) for n in range(size)]

    def own_area(self, c: tuple) -> int:
        return 1

    def children(self, c: tuple) -> list:
        gate = self.gate
        return [x for x in c[0] if gate[x]]

    def edges(self, c: tuple) -> list:
        return [(x, 1.0) for x in c[0]]

    def tie(self, c: tuple) -> int:
        return len(c[0])

    def cands(self, n: int) -> list:
        """n's stored cuts but the trivial one, with their words."""
        return self.engine.rows().tables(n)[:-1]

    def enum_round(self, delay_pri: bool, constrained: bool) -> None:
        """Re-enumerate priority cuts with this round's cost key and pick
        each node's best feasible cut, one level at a time."""
        chosen = self.chosen
        # per node, kept current as levels are picked; the extra last entry
        # is what a padding leaf reads
        arr = np.array(self.arr + [-1.0])
        flow = np.array(self.flow)
        est = np.array(self.est)
        share = np.append(flow / est, 0.0)
        slack = np.array(self.req) + _EPS

        def key(leaves, size):
            a = 1.0 + np.maximum.reduce(arr[leaves], axis=1)
            fl = 1.0 + np.add.reduce(share[leaves], axis=1)
            return (a, fl, size) if delay_pri else (fl, a, size)

        ia, ib = (0, 1) if delay_pri else (1, 0)
        picked = []
        for lv in self.levels(key):
            a, fl = lv.column(ia), lv.column(ib)
            nodes, pick = lv.nodes, lv.bound[:-1]
            if constrained:
                # the first cut meeting the required time, else the best
                n = a.size
                at = np.where(a <= slack[nodes[lv.owner]], np.arange(n), n)
                met = np.minimum.reduceat(at, pick)
                pick = np.where(met < n, met, pick)
            arr[nodes] = a[pick]
            flow[nodes] = fl = fl[pick]
            share[nodes] = fl / est[nodes]
            picked.append((nodes, lv.leaves[pick], lv.size[pick],
                           lv.tt[pick]))
        # the choices of the whole round, made once its levels are picked
        for n, row, z, w in zip(*(np.concatenate(c).tolist()
                                  for c in zip(*picked))):
            chosen[n] = (row[:z], w)
        self.arr[:] = arr[:-1].tolist()
        self.flow[:] = flow.tolist()


def map_lut(cn: ChoiceNetwork, p: MapParams = MapParams()) -> MappedNetlist:
    if p.target != LUT:
        raise MapError("map_lut needs target=lut")
    if not 2 <= p.k <= 6:
        raise MapError("LUT size must be in [2, 6]")
    _check_run(p)
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
    mandatory.  A line fails with its number when a cell has more than
    six inputs, a table wider than its inputs, or an area or pin delay
    that is negative or not finite.
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
        self.match_rows: list = []
        self.tpl_first = np.zeros(0, np.int64)
        self.tpl_count = np.zeros(0, np.int64)
        self.match_phase = np.zeros(0, np.int64)
        self.match_area = np.zeros(0)
        self.match_pin = np.zeros((0, self._pins), np.int64)
        self.match_comp = np.zeros((0, self._pins), np.int64)
        self.match_delay = np.zeros((0, self._pins))
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
        line_of: dict[str, int] = {}  # cell name -> its line
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] != "cell" or len(parts) < 5:
                raise LibraryError(f"line {ln}: expected "
                                   f"'cell name area tt inputs delays...'")
            name = parts[1]
            if name in line_of:
                raise LibraryError(f"line {ln}: cell {name} is already "
                                   f"defined on line {line_of[name]}")
            line_of[name] = ln
            try:
                area = float(parts[2])
                bits = int(parts[3], 16)
                v = int(parts[4])
                delays = tuple(float(x) for x in parts[5:])
            except ValueError as e:
                raise LibraryError(f"line {ln}: {e}") from None
            if not 0 <= v <= 6:
                raise LibraryError(f"line {ln}: {name} has {v} inputs "
                                   f"(0 to 6)")
            if not 0 <= bits < 1 << (1 << v):
                raise LibraryError(f"line {ln}: {name}'s table {parts[3]} "
                                   f"does not fit {v} inputs")
            if len(delays) != v:
                raise LibraryError(f"line {ln}: {name} needs {v} pin delays")
            # each of these fails for a negative number, nan and inf
            if not 0.0 <= area < INF:
                raise LibraryError(f"line {ln}: {name} has area {area} "
                                   f"(need a finite number >= 0)")
            for d in delays:
                if not 0.0 <= d < INF:
                    raise LibraryError(f"line {ln}: {name} has pin delay {d} "
                                       f"(need a finite number >= 0)")
            cells.append(Cell(name, area, TruthTable.create(bits, v),
                              delays))
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
        tpl_count[t] - 1 of match_rows, (phase, kind, cell, pins) each,
        each phase's in the order a node's match list takes them; pin
        (i, complement) reads cut leaf i, or the constant node for i =
        _PIN_CONST.  Phase 1 realizes the complement.  The match_* arrays
        hold the rows' phase, cell area, and per pin (padded with
        _PIN_PAD) leaf, complement and delay.  A function met for the
        first time gets its template and rows here."""
        tpl = self._tpl
        ids = list(map(tpl.get, zip(words, sizes)))
        if None in ids:
            new, nxt = [], len(tpl)
            for key in zip(words, sizes):
                if key not in tpl:
                    tpl[key] = nxt
                    nxt += 1
                    new.append(self._matches_of(TruthTable(*key)))
            ids = [tpl[key] for key in zip(words, sizes)]
            self._fill(new)
        return np.array(ids, np.int64)

    def _fill(self, new: list) -> None:
        """Append the match rows of new templates, one match list each."""
        count = np.array([len(ms) for ms in new], np.int64)
        rows = [m for ms in new for m in ms]
        pin = np.full((len(rows), self._pins), _PIN_PAD, np.int64)
        comp = np.zeros((len(rows), self._pins), np.int64)
        delay = np.zeros((len(rows), self._pins))
        for r, (_, _, cell, pins) in enumerate(rows):
            pin[r, :len(pins)] = [x for x, _ in pins]
            comp[r, :len(pins)] = [c for _, c in pins]
            if cell is not None:
                delay[r, :len(pins)] = cell.pin_delays
        self.tpl_first = np.concatenate((
            self.tpl_first, len(self.match_rows) + count.cumsum() - count))
        self.tpl_count = np.concatenate((self.tpl_count, count))
        self.match_rows += rows
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

    def cands(self, key: int) -> list:
        """The key's matches over its node's stored cuts, in the order the
        last round read them, then an inverter from the other phase; never
        an inverter when the other phase already is one."""
        n, phase = key >> 1, key & 1
        cl = self.cl
        cuts = self.engine.rows().tables(n)[:-1]
        tid = cl.templates([w for _, w in cuts],
                           [len(leaves) for leaves, _ in cuts])
        out = []
        for (leaves, _), lo, cnt in zip(cuts, cl.tpl_first[tid].tolist(),
                                        cl.tpl_count[tid].tolist()):
            out += [_CMatch(kind, cell, tuple(
                2 * (leaves[x] if x >= 0 else 0) + c for x, c in pins))
                for ph, kind, cell, pins in cl.match_rows[lo:lo + cnt]
                if ph == phase]
        other = self.chosen[key ^ 1]
        if other is None or other.kind != "inv":
            out.append(_CMatch("inv", self.cl.inv, (key ^ 1,)))
        return out

    def enum_round(self, delay_pri: bool, constrained: bool) -> None:
        """Re-enumerate priority cuts, match every stored cut of a level
        and pick each key's best match, a whole level at a time."""
        cl, chosen = self.cl, self.chosen
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
            f = np.add.reduce(best_flow[leaves], axis=1)
            return (a, f, size) if delay_pri else (f, a, size)

        # the stored lists keep the elementary fanin cut so a host
        # primitive is always matchable; without it a budgeted list can
        # end up with only functions the library cannot realize
        picked = []
        width = self.p.k + 2
        for lv in self.levels(score, elem=True):
            nodes = lv.nodes
            # one row per (stored cut, match), grouped by cut
            tid = cl.templates(lv.tt.tolist(), lv.size.tolist())
            cnt = cl.tpl_count[tid]
            row = np.arange(tid.size).repeat(cnt)
            mi = np.arange(row.size) + (cl.tpl_first[tid] - cnt.cumsum()
                                        + cnt)[row]
            # pin keys, 2 * node + complement: a cut leaf, the constant
            # node or the padding node
            node = np.empty((tid.size, width), np.int64)
            node[:, :-2], node[:, -2], node[:, -1] = lv.leaves, 0, pad
            pk = 2 * node[row[:, None], cl.match_pin[mi]] + cl.match_comp[mi]
            a = np.maximum.reduce(arr[pk] + cl.match_delay[mi], axis=1)
            f = cl.match_area[mi] + np.add.reduce(share[pk], axis=1)
            # the level's keys, 2 * node + phase, and each row's local
            # one, 2 * position + phase
            keys = 2 * nodes[:, None] + _PHASES
            lk = 2 * lv.owner[row] + cl.match_phase[mi]
            # per key, the first best match meeting the required time,
            # else the first best
            cols = (f, a, lk) if delay_pri else (a, f, lk)
            if constrained:
                cols = cols[:2] + (a > slack[keys].ravel()[lk], lk)
            o = np.lexsort(cols)
            ko = lk[o]
            head = np.empty(o.shape, bool)
            head[:1] = True
            np.not_equal(ko[1:], ko[:-1], out=head[1:])
            pick, kp = o[head], ko[head]
            # per node and phase: the pick's row, arrival and flow; INF
            # for a phase no match realizes
            at = np.zeros(keys.size, np.int64)
            at[kp] = pick
            pa, pf = val = np.full((2, nodes.size, 2), INF)
            val.reshape(2, -1)[:, kp] = a[pick], f[pick]
            # realize a missing or costlier phase through an inverter
            # from the other one; from a missing one it arrives at INF
            ia, iff = pa[:, ::-1] + invd, inv.area + pf[:, ::-1]
            if delay_pri:
                use = (ia < pa) | ((ia == pa) & (iff < pf))
            else:
                use = (iff < pf) | ((iff == pf) & (ia < pa))
            fa, ff = np.where(use, ia, pa), np.where(use, iff, pf)
            if np.count_nonzero(ff == INF):
                raise LibraryError("no cell matches any cut function of "
                                   f"node {nodes[ff[:, 0] == INF][0]}")
            arr[keys], flow[keys] = fa, ff
            share[keys] = ff / est[keys]
            best_arr[nodes] = np.minimum.reduce(fa, axis=1)
            best_flow[nodes] = np.minimum.reduce(ff, axis=1)
            picked.append((keys, use, mi[at], pk[at]))
        # match objects for the picks of the whole round, made once its
        # levels are picked
        if picked:
            keys, use, mi, pk = (np.concatenate(c) for c in zip(*picked))
            rows = cl.match_rows
            for key, inv_, m, pins in zip(
                    keys.ravel().tolist(), use.ravel().tolist(), mi.tolist(),
                    pk.tolist()):
                if inv_:
                    chosen[key] = _CMatch("inv", inv, (key ^ 1,))
                else:
                    _, kind, cell, own = rows[m]
                    chosen[key] = _CMatch(kind, cell, tuple(pins[:len(own)]))
        self.arr[:] = arr[:-1].tolist()
        self.flow[:] = flow.tolist()


def map_cells(cn: ChoiceNetwork, cl: CellLibrary,
              p: MapParams = MapParams(k=4, target=CELL)) -> MappedNetlist:
    if p.target != CELL:
        raise MapError("map_cells needs target=cell")
    if not 2 <= p.k <= 6:
        raise MapError("cut size must be in [2, 6]")
    _check_run(p)
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
