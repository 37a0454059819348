"""K-feasible priority cuts: the one choice-aware cut engine.

`CutEngine` owns everything about building a node's cut pool and the
truth tables of its cuts:

- the k-bounded merge of the fanin cut sets (signature prefilter, then
  `merge_leaf_sets`);
- for a choice-class representative, pooling every member's cuts with the
  member's phase folded into the table;
- dominance filtering;
- truth-table composition from the fanin cut tables (`_combine`), with one
  table per (node, leaf set);
- reusing a node's pool across rounds while the cut leaves of its fanins
  and members are unchanged.

Callers only score, sort and truncate a pool and store the result:
`enumerate_cuts` with the structural order, the LUT and cell mappers in
`mapper.py` with their own cost keys.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .network import AND2, MAJ3, XOR2
from .tt import FULL, TruthTable, maj_tt

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
    sig: int
    tt: Optional[TruthTable] = None


def _filter_dominated(cands: list[tuple]) -> list[tuple]:
    """cands: list of (leaves, sig); drop duplicates and dominated sets."""
    seen = set()
    uniq = []
    bit_of: dict[int, int] = {}
    for leaves, sig in cands:
        if leaves in seen:
            continue
        seen.add(leaves)
        mask = 0
        for x in leaves:
            b = bit_of.get(x)
            if b is None:
                b = 1 << len(bit_of)
                bit_of[x] = b
            mask |= b
        uniq.append((leaves, sig, mask))
    # visit in size order: a set can only be dominated by a smaller kept
    # set (dominance is transitive, so checking kept entries suffices)
    order = sorted(range(len(uniq)), key=lambda i: len(uniq[i][0]))
    kept = []
    kept_idx = []
    for i in order:
        mask = uniq[i][2]
        dominated = False
        for m2 in kept:
            if m2 & ~mask == 0 and m2 != mask:
                dominated = True
                break
        if not dominated:
            kept.append(mask)
            kept_idx.append(i)
    kept_idx.sort()
    return [uniq[i][:2] for i in kept_idx]


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


def merge_leaf_sets(sets: list[tuple], k: int):
    """Union of per-fanin leaf tuples, or None when more than k leaves."""
    merged = set()
    for s in sets:
        merged |= set(s)
        if len(merged) > k:
            return None
    return tuple(sorted(merged))


# -- truth-table composition -------------------------------------------


def _combos(fanin_cuts: list):
    if len(fanin_cuts) == 2:
        for a in fanin_cuts[0]:
            for b in fanin_cuts[1]:
                yield (a, b)
    else:
        for a in fanin_cuts[0]:
            for b in fanin_cuts[1]:
                for c in fanin_cuts[2]:
                    yield (a, b, c)


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
_EXPAND: dict[tuple, TruthTable] = {}


def _expand(tt: TruthTable, sub: tuple, leaves: tuple) -> TruthTable:
    """Re-express a cut tt over `sub` as a tt over the superset `leaves`."""
    pos = tuple(leaves.index(x) for x in sub)
    v = len(leaves)
    key = (tt.bits, pos, v)
    hit = _EXPAND.get(key)
    if hit is not None:
        return hit
    masks = _spread_masks(pos, v)
    bits = 0
    tb = tt.bits
    for m in range(len(masks)):
        if (tb >> m) & 1:
            bits |= masks[m]
    out = TruthTable.create(bits, v)
    if len(_EXPAND) < 1_000_000:
        _EXPAND[key] = out
    return out


def _combine(kind: str, fanins: tuple, combo: tuple,
             leaves: tuple) -> TruthTable:
    """Truth table of a merged cut from its fanin cut tables."""
    ins = []
    for f, c in zip(fanins, combo):
        t = _expand(c.tt, c.leaves, leaves)
        ins.append(~t if f.neg else t)
    if kind == AND2:
        return ins[0] & ins[1]
    if kind == XOR2:
        return ins[0] ^ ins[1]
    if kind == MAJ3:
        return maj_tt(ins[0], ins[1], ins[2])
    raise ValueError(f"cannot combine cut tables for kind {kind}")


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
        # node -> (input versions, kept, combo per merged leaves,
        #          folded table per member leaves)
        self._pools: dict[int, tuple] = {}
        self._tables: dict[tuple, TruthTable] = {}

    def pool(self, n: int) -> list[tuple]:
        """Dominance-filtered (leaves, sig) pairs of gate n: its own merged
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
        pool: list[tuple] = []
        combo_of: dict[tuple, tuple] = {}
        for combo in _combos([cutsets[f.node] for f in fanins]):
            sig = 0
            for c in combo:
                sig |= c.sig
            if sig.bit_count() > k:
                continue
            leaves = merge_leaf_sets([c.leaves for c in combo], k)
            if leaves is None or leaves in combo_of:
                continue
            combo_of[leaves] = combo
            pool.append((leaves, sig))
        member_tt: dict[tuple, TruthTable] = {}
        for m, phase in members:
            fold = FULL if phase else 0
            for c in cutsets[m]:
                if c.leaves == (m,) or c.leaves in combo_of \
                        or c.leaves in member_tt:
                    continue
                member_tt[c.leaves] = TruthTable(c.tt.bits ^ fold,
                                                 c.tt.var_count)
                pool.append((c.leaves, c.sig))
        kept = _filter_dominated(pool)
        self._pools[n] = (key, kept, combo_of, member_tt)
        return kept

    def merged(self, n: int, leaves: tuple) -> bool:
        """True when leaves came from n's own fanin merge (dominated or not)
        the last time its pool was built."""
        return leaves in self._pools[n][2]

    def table(self, n: int, leaves: tuple) -> TruthTable:
        """Function of n over leaves, from n's current pool on first request
        and the same table for every later request: a later pool may derive
        the same leaves from another fanin combination or a member, whose
        table can differ where the leaves cannot take independent values."""
        tt = self._tables.get((n, leaves))
        if tt is None:
            _, _, combo_of, member_tt = self._pools[n]
            tt = member_tt.get(leaves)
            if tt is None:
                tt = _combine(self.net.kind(n), self.net.fanins(n),
                              combo_of[leaves], leaves)
            self._tables[(n, leaves)] = tt
        return tt

    def set_cuts(self, n: int, cuts: list[Cut]) -> None:
        """Store gate n's cuts, appending its trivial cut."""
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
    for n in net.gates():
        kept = sorted(eng.pool(n), key=lambda p: (len(p[0]), p[1], p[0]))
        if l is not None:
            kept = kept[:l]
        eng.set_cuts(n, [Cut(leaves, sig, eng.table(n, leaves))
                         for leaves, sig in kept])
    return eng.cutsets


def all_cuts_bruteforce(net, root: int, k: int) -> list[tuple]:
    """Oracle: every subset of TFI(root) with <= k members that satisfies the
    cut property, dominance-filtered.  Exponential; test-sized nets only."""
    import itertools

    tfi = sorted(m for m in net.tfi([root]) if not net.is_const(m))
    found = []
    for size in range(1, k + 1):
        for combo in itertools.combinations(tfi, size):
            if is_cut(net, root, combo):
                found.append((combo, sig_of(combo)))
    kept = _filter_dominated(found)
    return sorted((leaves for leaves, _ in kept),
                  key=lambda ls: (len(ls), sig_of(ls), ls))
