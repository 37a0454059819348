"""K-feasible priority cuts: the one choice-aware cut engine.

`CutEngine` builds the cut pools of a whole dependency level at once.  The
levels are ASAP levels over fanins plus class members, so no node of a
level reads the cuts of another, and one round (`CutEngine.round`) walks
them bottom-up, a large level in parts that bound its working arrays.
Per level, on numpy arrays:

- each node's distinct source leaves (the leaves of its fanin cuts and of
  its members' cuts) get local bit numbers in ascending leaf order, so a
  leaf set is a row of `W` uint64 words: union is `|`, size is a popcount
  and `a & b == a` is containment;
- the merged cuts are the k-bounded ORs of the fanin cut masks in
  fanin-product order; a choice-class representative's pool then takes
  every member's cuts (the member's trivial cut excluded), with the
  member's phase folded into the table.  Duplicates keep their first
  occurrence, and every cut decodes straight from its mask to ascending
  leaves;
- the caller's vectorized key sorts each node's cuts, ties in pool order.
  A key never sorts a cut after one of its supersets, so a cut is
  dominated exactly when a cut sorted before it is its subset: the first
  `l` undominated cuts, found by a pairwise subset test over a prefix of
  the order, are the best `l` of the dominance-filtered pool.  They are
  stored, followed by the trivial cut.

Truth tables stay per node: the first time (node, leaves) is stored, the
cut's source is recorded (the fanin cuts it was merged from, or a
`_Member`), and `table()` composes it, and the tables it derives from, on
raw `int` bits when it is first read.  `enumerate_cuts` and the cell
mapper read every stored cut's table, the LUT mapper only those of its
final cover.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

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
    """Source of a pooled member cut: the member, the leaves of its cut and
    its phase."""
    node: int
    leaves: tuple
    phase: bool


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


# -- leaf-set masks ----------------------------------------------------


def _popcount(m: np.ndarray) -> np.ndarray:
    """Leaf count of each mask of a (..., W) array."""
    c = np.bitwise_count(m)
    return c[..., 0] if m.shape[-1] == 1 else c.sum(axis=-1, dtype=np.uint8)


def _max(a: np.ndarray) -> int:
    return int(np.maximum.reduce(a))


def _same(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise equality of (n, W) masks."""
    eq = a == b
    return eq[:, 0] if eq.shape[1] == 1 else np.logical_and.reduce(eq, 1)


def _differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inequality of (n, W) masks."""
    ne = a != b
    return ne[:, 0] if ne.shape[1] == 1 else np.logical_or.reduce(ne, 1)


def _masks(valid: np.ndarray, bit: np.ndarray, width: int) -> np.ndarray:
    """(..., W) masks of a (..., k) leaf array, given the local bits of its
    valid entries in order."""
    one = np.zeros(valid.shape, np.uint64)
    if width == 1:
        one[valid] = np.uint64(1) << bit.astype(np.uint64)
        return np.bitwise_or.reduce(one, axis=-1)[..., None]
    out = []
    for w in range(width):
        one[valid] = (bit >> 6 == w).astype(np.uint64) << (
            bit & 63).astype(np.uint64)
        out.append(np.bitwise_or.reduce(one, axis=-1))
    return np.stack(out, axis=-1)


def _local_bits(keys: np.ndarray, base: np.ndarray, mult: int) -> tuple:
    """Local bit numbers of leaf keys (position * mult + leaf): each
    node's distinct leaves numbered in ascending order.  Returns the
    distinct keys, the index of each node's first one, and the bit of
    every key."""
    o = keys.argsort()
    keys = keys[o]
    new = np.empty(len(keys), bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    ukeys = keys[new]
    nfirst = ukeys.searchsorted(base)
    bit = np.empty(len(keys), np.int64)
    bit[o] = new.cumsum() - 1 - nfirst[keys // mult]
    return ukeys, nfirst, bit


def _merged(plan, smask, sok, sc, k) -> tuple:
    """The merged cuts of a level, in fanin-product order: the pairs of
    the first two fanins within k, then each with the third fanin's cuts
    (none for a level of 2-input gates, whose third fanin is node 0's one
    empty cut), then the member cuts.  Returns each cut's node position,
    code, mask and leaf count, and the third fanin's slot count.  The code
    of a merged cut is its product's index within its node, over a
    (ls, ls, lc3) grid of the fanins' slots; that of a member cut is
    -1 - (its index in the level's (members, ls) grid)."""
    n_lv, ls, width = len(plan.node_list), sok.shape[1], smask.shape[-1]
    n3 = 3 * n_lv
    fm = smask[:n3].reshape(n_lv, 3, ls, width)
    fok = sok[:n3].reshape(n_lv, 3, ls)
    m = fm[:, 0, :, None] | fm[:, 1, None]
    pc = _popcount(m)
    ok = pc <= k
    ok &= fok[:, 0, :, None]
    ok &= fok[:, 1, None]
    flat = ok.ravel().nonzero()[0]
    own, code = np.divmod(flat, ls * ls)
    mask, pc = m.reshape(-1, width)[flat], pc.ravel()[flat]
    lc3 = 1
    if plan.maj is not None:
        # the pairs of 3-input gates, each with the third fanin's cuts
        lc3 = _max(sc[2:n3:3])
        three = plan.maj[own]
        t_own, t_code = own[three], code[three] * lc3
        m = mask[three][:, None] | fm[t_own, 2, :lc3]
        t_pc = _popcount(m)
        ok = t_pc <= k
        ok &= fok[t_own, 2, :lc3]
        flat = ok.ravel().nonzero()[0]
        pair, third = np.divmod(flat, lc3)
        two = ~three
        own = np.concatenate((own[two], t_own[pair]))
        code = np.concatenate((code[two] * lc3, t_code[pair] + third))
        mask = np.concatenate((mask[two], m.reshape(-1, width)[flat]))
        pc = np.concatenate((pc[two], t_pc.ravel()[flat]))
    if plan.drop is not None:
        flat = sok[n3:].ravel().nonzero()[0]
        mm = smask[n3:].reshape(-1, width)[flat]
        own = np.concatenate((own, plan.mown[flat // ls]))
        code = np.concatenate((code, -1 - flat))
        mask = np.concatenate((mask, mm))
        pc = np.concatenate((pc, _popcount(mm)))
    return own, code, mask, pc, lc3


def _first_occurrences(own: np.ndarray, mask: np.ndarray) -> tuple:
    """The first occurrence of each (node, mask), grouped by node: the
    indices, their nodes and their masks."""
    o = np.lexsort((*mask.T, own))
    mo, oo = mask[o], own[o]
    head = np.empty(len(o), bool)
    head[:1] = True
    head[1:] = _differ(mo[1:], mo[:-1])
    head[1:] |= oo[1:] != oo[:-1]
    return o[head], oo[head], mo[head]


def _best_undominated(m: np.ndarray, own: np.ndarray, n_lv: int,
                      l: Optional[int]) -> tuple:
    """The first l masks (all for None) of each node, in the given order,
    that contain no mask of their node before them: with every mask sorted
    after its subsets, the best l undominated ones.  m and own are grouped
    by node; a prefix of each node's masks is checked pairwise, and
    lengthened for a node while it holds fewer than l.  Returns the
    positions taken, their ranks within their nodes and the count taken
    per node."""
    per = np.bincount(own, minlength=n_lv)
    start = per.cumsum() - per
    pos = np.arange(len(own)) - start[own]
    want = per if l is None else np.minimum(per, l)
    # every node's whole list when none is longer than 2 * l
    reach = per if l is None or _max(per) <= 2 * l else np.minimum(per,
                                                                   2 * l)
    done = 0                            # prefix already checked
    dead = np.zeros(len(own), bool)
    while True:
        # the pairs (i, j), i < j, with j in [done, reach) of each node:
        # a contiguous range of the triangle
        lo = done * (done - 1) >> 1
        npair = (reach * (reach - 1) >> 1) - lo
        pend = npair.cumsum()
        if pend[-1]:
            ti, tj = _triangle(_max(reach))
            loc = np.arange(pend[-1]) + (lo - pend + npair).repeat(npair)
            first = start.repeat(npair)
            pi, pj = first + ti[loc], first + tj[loc]
            a = m[pi]
            dead[pj[_same(a & m[pj], a)]] = True
        live = ~dead
        if reach is per:
            break
        live &= pos < reach[own]
        got = np.bincount(own[live], minlength=n_lv)
        short = got < want
        short &= reach < per
        if not short.any():
            break
        done = reach
        reach = np.where(short, np.minimum(per, 2 * reach), reach)
    # rank among the node's live masks
    before = np.concatenate(([0], live.cumsum()))
    rank = before[1:] - before[start][own] - 1
    sel = (live & (rank < want[own])).nonzero()[0]
    return sel, rank[sel], np.bincount(own[sel], minlength=n_lv)


def _decode(msv, osv, size, ukeys, nfirst, base, top, k) -> np.ndarray:
    """(S, k) ascending leaves, -1 padded, of masks over local bits up to
    top: a mask's set bits, in ascending order, are its leaves."""
    bits = np.unpackbits(msv.astype("<u8", copy=False).view(np.uint8)[
        :, :(top >> 3) + 1], axis=1, bitorder="little")
    r, c = bits.nonzero()
    orow = osv[r]
    leaves = np.full((len(msv), k), -1, np.int64)
    leaves[r, np.arange(len(r)) - (size.cumsum(dtype=np.int64)
                                   - size)[r]] = (
        ukeys[nfirst[orow] + c] - base[orow])
    return leaves


def _elem_hits(md, code, plan, ukeys, nfirst, width, d, od) -> tuple:
    """The first merged candidate over exactly its node's fanins, per
    node that has one: candidate indices and node positions."""
    n_lv = len(plan.node_list)
    fan = plan.src[:3 * n_lv].reshape(n_lv, 3)
    fan = np.where(fan > 0, fan, fan[:, :1]) + plan.base[:, None]
    pos = ukeys.searchsorted(fan) - nfirst[:, None]
    em = np.zeros((n_lv, width), np.uint64)
    np.bitwise_or.at(em, (np.arange(n_lv).repeat(3), (pos >> 6).ravel()),
                     (np.uint64(1) << (pos & 63).astype(np.uint64)).ravel())
    hit = _same(md, em[od]) & (code[d] >= 0)
    return d[hit], od[hit]


# the most cut lists one part of a level reads (see CutEngine._plan)
_PART = 256

_TRI = [0, np.zeros(0, np.int64), np.zeros(0, np.int64)]


def _triangle(p: int) -> list:
    """Pairs (i, j), i < j < p, ordered by j: the pairs of the first q
    items are the first q * (q - 1) // 2 entries."""
    if _TRI[0] < p:
        q = max(p, 2 * _TRI[0])
        cnt = np.arange(q)
        j = cnt.repeat(cnt)
        _TRI[:] = [q, np.arange(len(j)) - (cnt.cumsum() - cnt)[j], j]
    return _TRI[1:]


class _Plan(NamedTuple):
    """The parts of one dependency level that stay the same every round.

    A segment is the stored cut list of one source of one of the level's
    nodes: first the three fanins of every node (node 0, whose one cut is
    empty, pads a 2-input gate), then the class members, grouped by node
    in class order."""
    nodes: np.ndarray        # the level's gates, ascending
    node_list: list
    fanins: list             # fanin nodes of each
    src: np.ndarray          # per segment: the node whose cuts it holds
    drop: Optional[np.ndarray]   # 1 per member segment: its trivial cut
    #                              is left out; None without members
    base: np.ndarray         # leaf-key base of each node: position * (size+1)
    sbase: np.ndarray        # (S, 1, 1) the base of each segment's node
    maj: Optional[np.ndarray]    # which nodes are 3-input gates; None
    #                              when none is
    mown: np.ndarray         # per member segment: its node's position
    msrc: list
    mphase: list
    trivial: np.ndarray      # (N, k) the node itself, -1 padded


class Level:
    """One dependency level of a round, after its cuts are stored.

    `nodes` (and `node_list`) are the level's gates, ascending; `count`
    is the number of pool cuts stored per node (0 for a node whose pool
    is empty).  Over the stored cuts, grouped by node in key order,
    `owner` is each one's node position and `key` holds the caller's key
    columns.  `pool` and `merged` describe the pools themselves while the
    round is at this level."""

    def __init__(self, plan, key, owner, count, pools):
        self.nodes, self.node_list = plan.nodes, plan.node_list
        self.key, self.owner, self.count = key, owner, count
        self._fanins, self._pools = plan.fanins, pools

    @property
    def empty(self) -> list:
        """The nodes whose pool is empty."""
        return [n for n, c in zip(self.node_list, self.count.tolist())
                if not c]

    def _own(self, j: int) -> list:
        """Node j's pool cuts in pool order, as (leaves, merged) pairs:
        its distinct cuts that contain no other."""
        leaves, size, md, code, _, _, _, _, d, od = self._pools
        lo, hi = od.searchsorted([j, j + 1]).tolist()
        masks = [sum(int(w) << (64 * i) for i, w in enumerate(row))
                 for row in md[lo:hi]]
        return [(tuple(leaves[i, :size[i]].tolist()), code[d[i]] >= 0)
                for i in sorted(range(lo, hi), key=d.__getitem__)
                if not any(o != masks[i - lo] and o & masks[i - lo] == o
                           for o in masks)]

    def pool(self, j: int) -> list[tuple]:
        """Leaf tuples of node j's pool cuts, in pool order: merged cuts
        in fanin-product order, then member cuts not already present."""
        return [lv for lv, _ in self._own(j)]

    def merged(self, j: int, leaves: tuple) -> bool:
        """True when leaves come from node j's own fanin merge: a merged
        pool cut, or the elementary merge of its fanins, which is
        answered even when dominated."""
        if (leaves, True) in self._own(j):
            return True
        return (leaves == tuple(sorted(self._fanins[j]))
                and j in _elem_hits(*self._pools[2:])[1].tolist())


class CutEngine:
    """Cut sets of one network's nodes, built one dependency level at a
    time by `round`.

    `classes` maps a representative to its (member, phase) pairs; a member
    cut enters the representative's pool with its table complemented when
    the phase is set.  `order` lists the gates so that every fanin and
    class member of a node comes before it (default: ascending ids, which
    holds without classes).  PIs and the constant hold their trivial cut;
    every gate's stored list ends with its trivial cut.
    """

    def __init__(self, net, k: int, classes: Optional[dict] = None,
                 order=None):
        self.net = net
        self.k = k
        self.classes = classes or {}
        # node -> leaf tuples of its stored cuts
        self.cutsets: dict[int, list[tuple]] = {0: [()]}
        # (node, leaves) -> the cut's table, or the source it is composed
        # from when first read: the fanin cuts it was merged from, or a
        # _Member
        self._known: dict[tuple, object] = {(0, ()): TruthTable.const(False)}
        for n in net.pis:
            self.cutsets[n] = [(n,)]
            self._known[(n, (n,))] = _VAR0
        size = len(net)
        self._key_mult = size + 1
        # one leaf row per stored cut of the current round: node n's list
        # is rows start[n] .. start[n] + count[n] - 1; the constant's one
        # cut is empty
        self._start = np.zeros(size, np.int64)
        self._count = np.zeros(size, np.int64)
        self._rows = np.full((max(64, 8 * size), k), -1, np.int32)
        self._count[0] = 1
        for i, n in enumerate(net.pis, start=1):
            self._rows[i, 0] = n
            self._start[n], self._count[n] = i, 1
        self._base = self._nrows = 1 + len(net.pis)
        self._ints = np.array(range(size), object)
        self._plans = self._plan(net.gates() if order is None else order)
        # per plan, the rows (position, leaves...) it stored so far
        self._stored = [np.zeros((0, k + 1), np.int32)] * len(self._plans)

    def _plan(self, order) -> list[_Plan]:
        """ASAP levels over fanins plus class members, and each level's
        fixed arrays."""
        net, classes, known = self.net, self.classes, self._known
        level = [0] * len(net)
        gates, fans = [], []
        for n in order:
            fs = tuple([f[0] for f in net.fanins(n)])
            lv = max([level[f] for f in fs])
            for m, _ in classes.get(n, ()):
                lv = max(lv, level[m])
            level[n] = lv + 1
            gates.append(n)
            fans.append(fs)
            known[(n, (n,))] = _VAR0
        if not gates:
            return []
        by = np.lexsort((gates, [level[n] for n in gates])).tolist()
        gates = [gates[i] for i in by]
        fans = [fans[i] for i in by]
        fan = np.array([fs + (0,) * (3 - len(fs)) for fs in fans], np.int64)
        lv_all = np.array([level[n] for n in gates])
        cut = set((np.flatnonzero(lv_all[1:] != lv_all[:-1]) + 1).tolist())
        trivial = np.full((len(gates), self.k), -1, np.int64)
        trivial[:, 0] = gates
        mult = self._key_mult
        # a level is built in parts of at most _PART cut lists read, which
        # bounds the kernel's working arrays
        bounds, size = [0], 0
        for i, n in enumerate(gates):
            reads = 3 + len(classes.get(n, ()))
            if i in cut or size + reads > _PART and size:
                bounds.append(i)
                size = 0
            size += reads
        bounds.append(len(gates))
        plans = []
        for lo, hi in zip(bounds, bounds[1:]):
            node_list = gates[lo:hi]
            members = [(j, m, ph) for j, n in enumerate(node_list)
                       for m, ph in classes.get(n, ())]
            base = np.arange(hi - lo, dtype=np.int64) * mult
            mown = np.array([j for j, _, _ in members], np.int64)
            msrc = [m for _, m, _ in members]
            plans.append(_Plan(
                np.array(node_list, np.int64), node_list, fans[lo:hi],
                np.concatenate((fan[lo:hi].ravel(), msrc)).astype(np.int64),
                np.array([0] * (3 * (hi - lo)) + [1] * len(members))
                if members else None,
                base, np.concatenate((base.repeat(3), mown * mult))[
                    :, None, None],
                np.array([len(fs) == 3 for fs in fans[lo:hi]])
                if any(len(fs) == 3 for fs in fans[lo:hi]) else None,
                mown, msrc,
                [ph for _, _, ph in members], trivial[lo:hi]))
        return plans

    def round(self, key, l: Optional[int] = None, elem: bool = False):
        """Pool, score, truncate and store every gate's cuts, one level at
        a time, yielding each `Level` once its cuts are stored.

        key(leaves, size) returns the sort columns (primary first) of the
        distinct pool cuts, given their (S, k) ascending leaf matrix (-1
        padded) and leaf counts; ties keep pool order.  It must sort every
        cut before its supersets (the leaf count as the last column, after
        columns that do not fall when leaves are added, will do).  The
        best `l` undominated cuts (all for None) of each node are stored.
        With `elem`, a node's elementary fanin merge is stored after them
        even when it is dominated or cut off, so a host primitive always
        has its own cut."""
        self._nrows = self._base
        for i, plan in enumerate(self._plans):
            lv = self._level(plan, i, key, l, elem)
            yield lv
            lv._pools = None        # the next level is built without them

    def _level(self, plan: _Plan, i: int, key, l, elem: bool) -> Level:
        k, n_lv = self.k, len(plan.node_list)
        # every segment's stored cuts, padded to ls slots
        sc = self._count[plan.src]
        if plan.drop is not None:
            sc -= plan.drop
        ls = _max(sc)
        slot = np.arange(ls)
        sok = slot < sc[:, None]
        leaves = self._rows[self._start[plan.src][:, None] + slot]
        valid = leaves >= 0
        valid &= sok[..., None]
        ukeys, nfirst, bit = _local_bits((leaves + plan.sbase)[valid],
                                         plan.base, self._key_mult)
        del leaves
        top = _max(bit)
        width = (top >> 6) + 1
        smask = _masks(valid, bit, width)
        del valid, bit
        own, code, mask, pc, lc3 = _merged(plan, smask, sok, sc, k)
        d, od, md = _first_occurrences(own, mask)
        size = pc[d]
        leaves = _decode(md, od, size, ukeys, nfirst, plan.base, top, k)
        # the caller's order, ties in pool order, then the best l cuts of
        # each node that contain no other
        cols = key(leaves, size)
        order = np.lexsort((d, *cols[::-1], od))
        sown = od[order]
        sel, rank, kept = _best_undominated(md[order], sown, n_lv, l)
        order, sown = order[sel], sown[sel]

        cand, cown, crank = d[order], sown, rank
        crow, csize, count = leaves[order], size[order], kept
        pools = (leaves, size, md, code, plan, ukeys, nfirst, width, d, od)
        if elem:
            ed, eo = _elem_hits(*pools[2:])
            stored = np.zeros(len(own), bool)
            stored[cand] = True
            ed, eo = ed[~stored[ed]], eo[~stored[ed]]
            erow = np.full((len(eo), k), -1, np.int64)
            for e, j in enumerate(eo.tolist()):
                erow[e, :len(plan.fanins[j])] = sorted(plan.fanins[j])
            grp = np.concatenate((cown, eo)).argsort(kind="stable")
            cand = np.concatenate((cand, ed))[grp]
            cown = np.concatenate((cown, eo))[grp]
            crank = np.concatenate((crank, kept[eo]))[grp]
            crow = np.concatenate((crow, erow))[grp]
            csize = np.concatenate((csize, pc[ed]))[grp]
            count = kept + np.bincount(eo, minlength=n_lv)
        self._store(plan, i, cown, crank, count, crow, csize, code[cand],
                    (ls, lc3))
        return Level(plan, [c[order] for c in cols], sown, kept, pools)

    def _store(self, plan, i, cown, crank, count, crow, csize, ccode,
               shape) -> None:
        """Store each level node's chosen cuts (grouped by node, each at its
        slot in crank) and its trivial cut, recording the table source of
        every (node, leaves) stored for the first time.  A source code is
        the index of a merged cut in its node's fanin product, over a
        (ls, ls, lc3) grid of the fanins' slots, or -1 - the index of a
        member cut in the level's (members, ls) grid."""
        total = count + 1
        start = total.cumsum()
        start += self._nrows - total
        need = self._nrows + len(cown) + len(total)
        # a level reads up to its longest list past a list's start
        room = need + _max(total)
        if room > len(self._rows):
            grown = np.full((2 * room, self.k), -1, np.int32)
            grown[:self._nrows] = self._rows[:self._nrows]
            self._rows = grown
        self._rows[start[cown] + crank] = crow
        self._rows[start + count] = plan.trivial
        self._start[plan.nodes] = start
        self._count[plan.nodes] = total
        self._nrows = need

        # leaves as the network's own node ints, shared by every tuple
        cuts = [tuple(r[:z]) for r, z in zip(self._ints[crow].tolist(),
                                             csize.tolist())]
        cutsets, nodes, t = self.cutsets, plan.node_list, 0
        for n, cnt in zip(nodes, count.tolist()):
            own = cuts[t:t + cnt]
            own.append((n,))
            cutsets[n] = own
            t += cnt
        # the (node, leaves) stored for the first time: rows not among
        # those the level stored in earlier rounds
        new = np.concatenate((cown[:, None], crow), axis=1,
                             dtype=np.int32)
        if len(self._stored[i]):
            new = np.concatenate((self._stored[i], new))
            o = np.lexsort(new.T[::-1])
            fresh = np.empty(len(o), bool)
            fresh[o[0]] = True
            fresh[o[1:]] = _differ(new[o[1:]], new[o[:-1]])
            new = new[fresh]
            fresh = fresh[len(fresh) - len(cown):].nonzero()[0].tolist()
        else:
            fresh = range(len(cown))
        self._stored[i] = new

        ls, lc3 = shape
        known, fanins = self._known, plan.fanins
        msrc, mphase = plan.msrc, plan.mphase
        cown, ccode = cown.tolist(), ccode.tolist()
        for t in fresh:
            j, c = cown[t], ccode[t]
            if c < 0:
                g, i = divmod(-1 - c, ls)
                m = msrc[g]
                src = _Member(m, cutsets[m][i], mphase[g])
            else:
                fs = fanins[j]
                c, i2 = divmod(c, lc3)
                i0, i1 = divmod(c, ls)
                src = (cutsets[fs[0]][i0], cutsets[fs[1]][i1])
                if len(fs) == 3:
                    src += (cutsets[fs[2]][i2],)
            known[(nodes[j], cuts[t])] = src

    def table(self, n: int, leaves: tuple) -> TruthTable:
        """Function of n over leaves, a cut stored for n; the same table
        for every later request.  Its source is fixed the first time
        (n, leaves) is stored, from n's pool in that round: a later pool
        may derive the same leaves from another fanin combination or a
        member, whose table can differ where the leaves cannot take
        independent values."""
        tt = self._known[(n, leaves)]
        if type(tt) is not TruthTable:
            tt = self._compose(n, leaves)
        return tt

    def _compose(self, n: int, leaves: tuple) -> TruthTable:
        """Compose n's table over leaves, and first every stored fanin or
        member table it derives from that is not composed yet.  The walk
        keeps an explicit stack: a derivation can be thousands of levels
        deep."""
        net, known = self.net, self._known
        stack = [(n, leaves)]
        while True:
            x, lv = stack[-1]
            src = known[(x, lv)]
            pend = None
            if type(src) is _Member:
                tt = known[(src.node, lv)]
                if type(tt) is not TruthTable:
                    pend = (src.node, lv)
                elif src.phase:
                    tt = ~tt
            else:
                ins = []
                for f, c in zip(net.fanins(x), src):
                    tt = known[(f.node, c)]
                    if type(tt) is not TruthTable:
                        pend = (f.node, c)
                        break
                    t = _expand(tt.bits, c, lv)
                    ins.append(t ^ FULL if f.neg else t)
                else:
                    tt = _combine(net.kind(x), ins, len(lv))
            if pend is not None:
                stack.append(pend)
                continue
            stack.pop()
            known[(x, lv)] = tt
            if not stack:
                return tt


def enumerate_cuts(net, k: int, l: Optional[int] = None
                   ) -> dict[int, list[Cut]]:
    """Per-node priority cut sets.

    PI cut set is the trivial cut only.  Gate cut sets are dominance-filtered
    merges of the fanin cut sets, truncated to the best `l` by the structural
    comparator (fewer leaves, then lower signature, then the leaves), with
    the trivial cut always appended outside the budget.  `l=None` keeps
    everything.
    """
    if not 2 <= k <= 6:
        raise ValueError("cut size must be in [2, 6]")
    if l is not None and l < 1:
        raise ValueError("cut limit must be >= 1")
    eng = CutEngine(net, k)
    # the signature of padding is 0
    sigs = np.array([leaf_sig(x) for x in range(len(net))] + [0], np.uint64)

    def key(leaves, size):
        return (size, np.bitwise_or.reduce(sigs[leaves], axis=1), *leaves.T)

    sig_of_cut: dict[int, list] = {}
    for lv in eng.round(key, l):
        sig = lv.key[1].tolist()
        t = 0
        for n, cnt in zip(lv.node_list, lv.count.tolist()):
            sig_of_cut[n] = sig[t:t + cnt]
            t += cnt
    out = {0: [Cut((), 0, eng.table(0, ()))]}
    for n in net.pis:
        out[n] = [Cut((n,), leaf_sig(n), _VAR0)]
    for n in net.gates():
        cuts = eng.cutsets[n]
        out[n] = [Cut(lv, s, eng.table(n, lv))
                  for lv, s in zip(cuts, sig_of_cut[n])] + [
            Cut((n,), leaf_sig(n), _VAR0)]
    return out


def all_cuts_bruteforce(net, root: int, k: int) -> list[tuple]:
    """Oracle: every subset of TFI(root) with <= k members that satisfies the
    cut property, dominance-filtered.  Exponential; test-sized nets only."""
    import itertools

    tfi = tuple(sorted(m for m in net.tfi([root]) if not net.is_const(m)))
    found = [combo for size in range(1, k + 1)
             for combo in itertools.combinations(tfi, size)
             if is_cut(net, root, combo)]
    sets = [set(combo) for combo in found]
    return sorted((leaves for leaves, s in zip(found, sets)
                   if not any(o < s for o in sets)),
                  key=lambda ls: (len(ls), sig_of(ls), ls))
