"""K-feasible priority cuts: the one choice-aware cut engine.

`CutEngine` owns everything about building a node's cut pool and the
truth tables of its cuts:

- the k-bounded merge of the fanin cut sets.  While a pool is built, each
  distinct leaf of its fanin and member cuts gets one bit of a pool-local
  index, so a leaf set is an `int` mask: union is `|`, size is
  `bit_count()`, duplicates are equal ints and `m2 & m == m2` is
  containment.  Only the cuts that survive dominance get a sorted leaf
  tuple, taken from the cuts they came from (the union of the fanin cuts'
  leaves, or the member cut's own), never by decoding the mask;
- for a choice-class representative, pooling every member's cuts with the
  member's phase folded into the table;
- dominance filtering;
- truth-table composition from the fanin cut tables (`_combine`) on raw
  `int` bits, with one `TruthTable` per (node, leaf set).  A cut stored
  without a table only has its source (fanin combination, or member cut
  and phase) recorded; `table()` composes it, and the tables it derives
  from, when it is first read;
- reusing a node's pool across rounds while the cut leaves of its fanins
  and members are unchanged.

A pool is a list of leaf tuples; signatures exist only in
`enumerate_cuts`, for its structural order.  Callers score, sort and
truncate a pool and store the result: `enumerate_cuts` and the cell
mapper read every stored cut's table at once, the LUT mapper only those
of its final cover.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .network import AND2, MAJ3, XOR2
from .tt import FULL, TruthTable, pad

_SIG_MULT = 0x9E3779B97F4A7C15
_VAR0 = TruthTable.var(0, 1)


def leaf_sig(n: int) -> int:
    return 1 << (((n * _SIG_MULT) >> 58) & 63)


def sig_of(leaves) -> int:
    s = 0
    for n in leaves:
        s |= leaf_sig(n)
    return s


class Cut(NamedTuple):
    leaves: tuple            # strictly ascending node indices
    sig: int = 0             # leaf signature; 0 where nothing sorts by it
    tt: Optional[TruthTable] = None     # None: the engine composes it


class _Member(NamedTuple):
    """Source of a pooled member cut: the member, its cut and its phase."""
    node: int
    cut: Cut
    phase: bool


def _undominated(masks: list) -> set:
    """The masks of a list of distinct leaf-set masks that contain no other
    mask of the list."""
    # visit in size order: a set can only be dominated by a smaller kept
    # set (dominance is transitive, so checking kept entries suffices)
    kept = []
    for mk in sorted(masks, key=int.bit_count):
        for m2 in kept:
            if m2 & mk == m2:
                break
        else:
            kept.append(mk)
    return set(kept)


def is_cut(net, root: int, leaves) -> bool:
    """True iff every PI-to-root path crosses a leaf."""
    leafset = set(leaves)
    if root in leafset:
        return True
    stack = [root]
    seen = set()
    while stack:
        n = stack.pop()
        if n in seen or n in leafset:
            continue
        seen.add(n)
        if net.is_pi(n):
            return False
        stack.extend(f.node for f in net.fanins(n))
    return True


# -- truth-table composition -------------------------------------------


_SPREAD: dict[tuple, list] = {}


def _spread_masks(pos: tuple, v: int) -> list:
    """masks[m] = set of v-var minterms projecting to sub-minterm m."""
    key = (pos, v)
    masks = _SPREAD.get(key)
    if masks is None:
        masks = [0] * (1 << len(pos))
        for m in range(1 << v):
            inner = 0
            for i, pi in enumerate(pos):
                inner |= ((m >> pi) & 1) << i
            masks[inner] |= 1 << m
        _SPREAD[key] = masks
    return masks


# keyed by leaf positions, not node ids, so the same expansion is shared
# by every node and the cache stays small on large networks
_EXPAND: dict[tuple, int] = {}


def _expand(bits: int, sub: tuple, leaves: tuple) -> int:
    """Re-express the table bits of a cut over `sub` as the padded table
    bits over the superset `leaves`."""
    pos = tuple(map(leaves.index, sub))
    v = len(leaves)
    key = (bits, pos, v)
    out = _EXPAND.get(key)
    if out is None:
        masks = _spread_masks(pos, v)
        out = 0
        for m in range(len(masks)):
            if (bits >> m) & 1:
                out |= masks[m]
        out = pad(out, v)
        if len(_EXPAND) < 1_000_000:
            _EXPAND[key] = out
    return out


def _combine(kind: str, ins: list, v: int) -> TruthTable:
    """Truth table of a merged cut over v leaves from its fanins' table
    bits, each expanded to those leaves with the fanin's phase applied."""
    if kind == AND2:
        bits = ins[0] & ins[1]
    elif kind == XOR2:
        bits = ins[0] ^ ins[1]
    elif kind == MAJ3:
        a, b, c = ins
        bits = (a & b) | (a & c) | (b & c)
    else:
        raise ValueError(f"cannot combine cut tables for kind {kind}")
    return TruthTable(bits, v)


def _union(combo: tuple) -> tuple:
    """Sorted leaf tuple of the cut merged from a fanin combination."""
    leaves = {*combo[0].leaves, *combo[1].leaves}
    if len(combo) == 3:
        leaves.update(combo[2].leaves)
    return tuple(sorted(leaves))


# -- the engine --------------------------------------------------------


class CutEngine:
    """Cut sets of one network's nodes, filled in by the caller in an order
    where every fanin and class member of a node comes before the node.

    `classes` maps a representative to its (member, phase) pairs; a member
    cut enters the representative's pool with its table complemented when
    the phase is set.  PIs and the constant hold their trivial cut; every
    gate's stored list ends with its trivial cut.
    """

    def __init__(self, net, k: int, classes: Optional[dict] = None):
        self.net = net
        self.k = k
        self.classes = classes or {}
        self.cutsets: dict[int, list[Cut]] = {
            0: [Cut((), 0, TruthTable.const(False))]}
        for n in net.pis:
            self.cutsets[n] = [Cut((n,), leaf_sig(n), _VAR0)]
        # bumped whenever a node's cut leaves change; a pool is stored
        # with the versions of its fanins and members, and reused while
        # they match
        self._version: dict[int, int] = {}
        # node -> (input versions, kept leaf tuples, fanin combo per merged
        #          leaf tuple, _Member per member leaf tuple)
        self._pools: dict[int, tuple] = {}
        self._tables: dict[tuple, TruthTable] = {}
        # (node, leaves) -> source of a stored cut's table not yet composed
        self._sources: dict[tuple, object] = {}

    def pool(self, n: int) -> list[tuple]:
        """Dominance-filtered leaf tuples of gate n's cuts: its own merged
        cuts in fanin-product order, then member cuts not already present.
        The trivial cut is not included."""
        fanins = self.net.fanins(n)
        members = self.classes.get(n, ())
        version = self._version
        key = tuple(version.get(f.node, 0) for f in fanins) + tuple(
            version.get(m, 0) for m, _ in members)
        hit = self._pools.get(n)
        if hit is not None and hit[0] == key:
            return hit[1]
        k = self.k
        cutsets = self.cutsets
        bit: dict[int, int] = {}    # leaf -> its bit, in first-seen order

        def masked(cuts) -> list:
            out = []
            for c in cuts:
                mask = 0
                for x in c.leaves:
                    b = bit.get(x)
                    if b is None:
                        b = bit[x] = 1 << len(bit)
                    mask |= b
                out.append((mask, c))
            return out

        rows = [masked(cutsets[f.node]) for f in fanins]
        combo_of: dict[int, tuple] = {}
        if len(rows) == 2:
            for ma, ca in rows[0]:
                for mb, cb in rows[1]:
                    u = ma | mb
                    if u not in combo_of and u.bit_count() <= k:
                        combo_of[u] = (ca, cb)
        else:
            for ma, ca in rows[0]:
                for mb, cb in rows[1]:
                    mab = ma | mb
                    if mab.bit_count() > k:
                        continue
                    for mc, cc in rows[2]:
                        u = mab | mc
                        if u not in combo_of and u.bit_count() <= k:
                            combo_of[u] = (ca, cb, cc)
        member_of: dict[int, _Member] = {}
        for m, phase in members:
            for mask, c in masked([c for c in cutsets[m]
                                   if c.leaves != (m,)]):
                if mask not in combo_of and mask not in member_of:
                    member_of[mask] = _Member(m, c, phase)
        keep = _undominated([*combo_of, *member_of])
        kept = []
        combos: dict[tuple, tuple] = {}
        for mask, combo in combo_of.items():
            if mask in keep:
                leaves = _union(combo)
                combos[leaves] = combo
                kept.append(leaves)
        member_src: dict[tuple, _Member] = {}
        for mask, src in member_of.items():
            if mask in keep:
                member_src[src.cut.leaves] = src
                kept.append(src.cut.leaves)
        # the cell mapper reads the elementary fanin merge even when it is
        # dominated
        elem = 0
        for f in fanins:
            if f.node not in bit:
                break
            elem |= bit[f.node]
        else:
            if elem in combo_of and elem not in keep:
                combos[_union(combo_of[elem])] = combo_of[elem]
        self._pools[n] = (key, kept, combos, member_src)
        return kept

    def merged(self, n: int, leaves: tuple) -> bool:
        """True when leaves came from n's own fanin merge the last time its
        pool was built, as a pooled cut or as the elementary merge of n's
        fanins (which is answered even when dominated)."""
        return leaves in self._pools[n][2]

    def _source(self, n: int, leaves: tuple):
        """Where n's table over leaves comes from in n's current pool: the
        fanin combination it was merged from, or a _Member."""
        _, _, combos, member_src = self._pools[n]
        src = combos.get(leaves)
        return member_src[leaves] if src is None else src

    def table(self, n: int, leaves: tuple) -> TruthTable:
        """Function of n over leaves, and the same table for every later
        request.  Its source is fixed the first time (n, leaves) is stored
        by set_cuts or requested here, from n's pool at that moment: a later
        pool may derive the same leaves from another fanin combination or a
        member, whose table can differ where the leaves cannot take
        independent values."""
        tt = self._tables.get((n, leaves))
        if tt is None:
            tt = self._compose(n, leaves)
        return tt

    def _compose(self, n: int, leaves: tuple) -> TruthTable:
        """Compose n's table over leaves, and first every stored fanin or
        member table it derives from that is not composed yet.  The walk
        keeps an explicit stack: a derivation can be thousands of levels
        deep."""
        net, tables, sources = self.net, self._tables, self._sources
        stack = [(n, leaves, sources.pop((n, leaves), None)
                  or self._source(n, leaves))]
        while True:
            x, lv, src = stack[-1]
            pend = None
            # a TruthTable is a non-empty tuple, so `or` reads only None
            if type(src) is _Member:
                tt = src.cut.tt or tables.get((src.node, lv))
                if tt is None:
                    pend = (src.node, lv)
                elif src.phase:
                    tt = ~tt
            else:
                fanins = net.fanins(x)
                ins = []
                for f, c in zip(fanins, src):
                    tt = c.tt or tables.get((f.node, c.leaves))
                    if tt is None:
                        pend = (f.node, c.leaves)
                        break
                    t = _expand(tt.bits, c.leaves, lv)
                    ins.append(t ^ FULL if f.neg else t)
                else:
                    tt = _combine(net.kind(x), ins, len(lv))
            if pend is not None:
                stack.append((*pend, sources.pop(pend)))
                continue
            stack.pop()
            tables[(x, lv)] = tt
            if not stack:
                return tt

    def set_cuts(self, n: int, cuts: list[Cut]) -> None:
        """Store gate n's cuts, appending its trivial cut.  A cut stored
        without a table has its table's source fixed from n's current pool
        the first time (n, leaves) is stored; table() composes it."""
        tables, sources = self._tables, self._sources
        for c in cuts:
            if c.tt is None:
                key = (n, c.leaves)
                if key not in tables and key not in sources:
                    sources[key] = self._source(n, c.leaves)
        cuts.append(Cut((n,), leaf_sig(n), _VAR0))
        old = self.cutsets.get(n)
        if old is None or [c.leaves for c in old] != [c.leaves for c in cuts]:
            self._version[n] = self._version.get(n, 0) + 1
        self.cutsets[n] = cuts


def enumerate_cuts(net, k: int, l: Optional[int] = None
                   ) -> dict[int, list[Cut]]:
    """Per-node priority cut sets.

    PI cut set is the trivial cut only.  Gate cut sets are dominance-filtered
    merges of the fanin cut sets, truncated to the best `l` by the structural
    comparator (fewer leaves, then lower signature), with the trivial cut
    always appended outside the budget.  `l=None` keeps everything.
    """
    if not 2 <= k <= 6:
        raise ValueError("cut size must be in [2, 6]")
    if l is not None and l < 1:
        raise ValueError("cut limit must be >= 1")
    eng = CutEngine(net, k)
    sigs = [leaf_sig(x) for x in range(len(net))]
    for n in net.gates():
        kept = []
        for lv in eng.pool(n):
            sig = 0
            for x in lv:
                sig |= sigs[x]
            kept.append((len(lv), sig, lv))
        kept.sort()
        if l is not None:
            kept = kept[:l]
        eng.set_cuts(n, [Cut(leaves, sig, eng.table(n, leaves))
                         for _, sig, leaves in kept])
    return eng.cutsets


def all_cuts_bruteforce(net, root: int, k: int) -> list[tuple]:
    """Oracle: every subset of TFI(root) with <= k members that satisfies the
    cut property, dominance-filtered.  Exponential; test-sized nets only."""
    import itertools

    tfi = tuple(sorted(m for m in net.tfi([root]) if not net.is_const(m)))
    found = [combo for size in range(1, k + 1)
             for combo in itertools.combinations(tfi, size)
             if is_cut(net, root, combo)]
    masks = [sum(1 << tfi.index(x) for x in combo) for combo in found]
    keep = _undominated(masks)
    return sorted((leaves for leaves, mask in zip(found, masks)
                   if mask in keep),
                  key=lambda ls: (len(ls), sig_of(ls), ls))
