"""K-feasible priority cuts: the one choice-aware cut engine.

`CutEngine` owns everything about building a node's cut pool and the
truth tables of its cuts:

- the k-bounded merge of the fanin cut sets.  While a pool is built, each
  distinct leaf of its fanin and member cuts gets one bit of a pool-local
  index, so a leaf set is an `int` mask: union is `|`, size is
  `bit_count()`, duplicates are equal ints and `m2 & m == m2` is
  containment.  Only the cuts that survive dominance are decoded back to
  sorted leaf tuples;
- for a choice-class representative, pooling every member's cuts with the
  member's phase folded into the table;
- dominance filtering;
- truth-table composition from the fanin cut tables (`_combine`) on raw
  `int` bits, with one `TruthTable` per (node, leaf set);
- reusing a node's pool across rounds while the cut leaves of its fanins
  and members are unchanged.

Callers only score, sort and truncate a pool and store the result:
`enumerate_cuts` with the structural order, the LUT and cell mappers in
`mapper.py` with their own cost keys.
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
    sig: int
    tt: Optional[TruthTable] = None


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


def _decode(mask: int, local: tuple) -> tuple:
    """(sorted leaf tuple, signature) of a pool-local mask."""
    leaves = []
    sig = 0
    while mask:
        low = mask & -mask
        x = local[low.bit_length() - 1]
        leaves.append(x)
        sig |= 1 << (((x * _SIG_MULT) >> 58) & 63)    # leaf_sig(x)
        mask ^= low
    leaves.sort()
    return tuple(leaves), sig


def _mask_of(leaves: tuple, local: tuple) -> int:
    mask = 0
    for x in leaves:
        mask |= 1 << local.index(x)
    return mask


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


def _combine(kind: str, fanins: tuple, combo: tuple,
             leaves: tuple) -> TruthTable:
    """Truth table of a merged cut from its fanin cut tables."""
    ins = []
    for f, c in zip(fanins, combo):
        t = _expand(c.tt.bits, c.leaves, leaves)
        ins.append(t ^ FULL if f.neg else t)
    if kind == AND2:
        bits = ins[0] & ins[1]
    elif kind == XOR2:
        bits = ins[0] ^ ins[1]
    elif kind == MAJ3:
        a, b, c = ins
        bits = (a & b) | (a & c) | (b & c)
    else:
        raise ValueError(f"cannot combine cut tables for kind {kind}")
    return TruthTable(bits, len(leaves))


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
        # node -> (input versions, kept, combo per merged mask,
        #          folded table per member mask, leaf of each mask bit)
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
        member_tt: dict[int, TruthTable] = {}
        for m, phase in members:
            for mask, c in masked([c for c in cutsets[m]
                                   if c.leaves != (m,)]):
                if mask not in combo_of and mask not in member_tt:
                    member_tt[mask] = ~c.tt if phase else c.tt
        cands = [*combo_of, *member_tt]
        keep = _undominated(cands)
        local = tuple(bit)
        kept = [_decode(mask, local) for mask in cands if mask in keep]
        self._pools[n] = (key, kept, combo_of, member_tt, local)
        return kept

    def merged(self, n: int, leaves: tuple) -> bool:
        """True when leaves came from n's own fanin merge (dominated or not)
        the last time its pool was built."""
        _, _, combo_of, _, local = self._pools[n]
        return all(x in local for x in leaves) and \
            _mask_of(leaves, local) in combo_of

    def table(self, n: int, leaves: tuple) -> TruthTable:
        """Function of n over leaves, from n's current pool on first request
        and the same table for every later request: a later pool may derive
        the same leaves from another fanin combination or a member, whose
        table can differ where the leaves cannot take independent values."""
        tt = self._tables.get((n, leaves))
        if tt is None:
            _, _, combo_of, member_tt, local = self._pools[n]
            mask = _mask_of(leaves, local)
            tt = member_tt.get(mask)
            if tt is None:
                tt = _combine(self.net.kind(n), self.net.fanins(n),
                              combo_of[mask], leaves)
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

    tfi = tuple(sorted(m for m in net.tfi([root]) if not net.is_const(m)))
    found = [combo for size in range(1, k + 1)
             for combo in itertools.combinations(tfi, size)
             if is_cut(net, root, combo)]
    masks = [_mask_of(combo, tfi) for combo in found]
    keep = _undominated(masks)
    return sorted((leaves for leaves, mask in zip(found, masks)
                   if mask in keep),
                  key=lambda ls: (len(ls), sig_of(ls), ls))
