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

Every stored cut carries its truth table as one 64-bit word (`tt.py`
tables: a function over v leaves, padded by replication), which the level
composes on arrays from the source it stored the cut from: each fanin
cut's word is expanded to the merged leaves by nibble lookups keyed by the
positions of its leaves among them, complemented by the fanin's phase and
combined by AND, XOR or MAJ3; a member cut reads its member's word as
every fanin, complemented by its phase.  A round reads nothing an earlier
round stored but the lists it overwrites, so every round is the same as a
first one.  A level's fixed cost in numpy calls is held to a budget by
`tests/test_call_budget.py`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .network import MAJ3, XOR2
from .tt import FULL, TruthTable

_SIG_MULT = 0x9E3779B97F4A7C15
_VAR0 = TruthTable.var(0, 1)
_CONST0 = TruthTable.const(False)


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
    tt: Optional[TruthTable] = None     # the cut's function over leaves


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


# -- truth-table words --------------------------------------------------


def _widen_nibbles() -> np.ndarray:
    """Flat (64, 16, 16) table: entry [pos, c, x] is the table word of the
    minterms 4c..4c+3 set in x of a cut whose leaves sit at the positions
    set in pos among a merged cut's leaves, over those merged leaves.
    The cut's i-th leaf goes to the i-th set bit of pos; the variables
    its table does not depend on take the free positions in order, so the
    result is padded like any table."""
    pos = np.arange(64)
    at = (pos[:, None] >> np.arange(6)) & 1
    # perm[p, i]: where variable i goes, set positions first
    perm = np.argsort(1 - at, axis=1, kind="stable")
    minterm = (np.arange(64)[:, None] >> np.arange(6)) & 1
    moved = (minterm[None] << perm[:, None]).sum(axis=2)      # (64, 64)
    one = (np.uint64(1) << moved.astype(np.uint64)).reshape(64, 16, 4)
    x = np.arange(16)
    out = np.zeros((64, 16, 16), np.uint64)
    for b in range(4):
        out |= np.where((x >> b) & 1 == 1, one[:, :, None, b], np.uint64(0))
    return out.ravel()


_NIBBLES = _widen_nibbles()
_NIBBLES_HI = _NIBBLES[16:]
# flat offset of each byte's low nibble in each position's block
_BYTE_AT = np.arange(64)[:, None] * 256 + np.arange(8) * 32


def _widen(tt: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Table words of cuts whose leaves sit at the positions set in the
    6-bit masks pos (of tt's shape) among merged cuts' leaves."""
    b = tt.astype("<u8", copy=False).view(np.uint8).reshape(tt.shape + (8,))
    at = _BYTE_AT[pos]
    return np.bitwise_or.reduce(
        _NIBBLES[at + (b & 15)] | _NIBBLES_HI[at + (b >> 4)], axis=-1)


# -- leaf-set masks ----------------------------------------------------

# bit b of a mask word, per b
_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _popcount(m: np.ndarray) -> np.ndarray:
    """Leaf count of each mask of a (..., W) array."""
    c = np.bitwise_count(m)
    return c[..., 0] if m.shape[-1] == 1 else c.sum(axis=-1, dtype=np.uint8)


def _max(a: np.ndarray) -> int:
    return int(np.maximum.reduce(a))


def _masks(valid: np.ndarray, bit: np.ndarray, width: int) -> np.ndarray:
    """(..., W) masks of a (..., k) leaf array, given the local bits of its
    valid entries in order."""
    one = np.zeros(valid.shape, np.uint64)
    if width == 1:
        one[valid] = _POW2[bit]
        return np.bitwise_or.reduce(one, axis=-1)[..., None]
    out = []
    word, b = bit >> 6, _POW2[bit & 63]
    for w in range(width):
        one[valid] = b * (word == w)
        out.append(np.bitwise_or.reduce(one, axis=-1))
    return np.stack(out, axis=-1)


def _local_bits(keys: np.ndarray, base: np.ndarray, mult: int) -> tuple:
    """Local bit numbers of leaf keys (position * mult + leaf): each
    node's distinct leaves numbered in ascending order.  Returns the
    distinct keys, the index of each node's first one, and the bit of
    every key."""
    o = keys.argsort()
    keys = keys[o]
    new = np.empty(keys.shape, bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    ukeys = keys[new]
    nfirst = ukeys.searchsorted(base)
    bit = np.empty(keys.shape, np.int64)
    bit[o] = new.cumsum() - 1 - nfirst[keys // mult]
    return ukeys, nfirst, bit


def _merged(plan, smask, sok, sc, ls, k) -> tuple:
    """The merged cuts of a level, in fanin-product order: the pairs of
    the first two fanins within k, then each with the third fanin's cuts
    (none for a level of 2-input gates, whose third fanin is node 0's one
    empty cut), then the member cuts.  Returns each cut's node position,
    code, mask and leaf count, and the third fanin's slot count.  The code
    of a merged cut is its product's index within its node, over a
    (ls, ls, lc3) grid of the fanins' slots; that of a member cut is
    -1 - (its index in the level's (members, ls) grid)."""
    n_lv, width = len(plan.node_list), smask.shape[-1]
    n3 = 3 * n_lv
    fm = smask[:n3 * ls].reshape(n_lv, 3, ls, width)
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
        mm = smask[n3 * ls + flat]
        own = np.concatenate((own, plan.mown[flat // ls]))
        code = np.concatenate((code, -1 - flat))
        mask = np.concatenate((mask, mm))
        pc = np.concatenate((pc, _popcount(mm)))
    return own, code, mask, pc, lc3


def _first_occurrences(own: np.ndarray, mask: np.ndarray, top: int,
                       nbits: int) -> tuple:
    """The first occurrence of each (node, mask), grouped by node: the
    indices, their nodes and their masks.  A mask over local bits up to
    top sorts as one word with its node position (nbits bits) above it
    when both fit."""
    head = np.empty(own.shape, bool)
    head[:1] = True
    if top + nbits < 64 and mask.shape[1] == 1:
        ko = mask[:, 0] | np.left_shift(own, top + 1, dtype=np.uint64,
                                        casting="unsafe")
        o = ko.argsort(kind="stable")
        ko = ko[o]
        np.not_equal(ko[1:], ko[:-1], out=head[1:])
    else:
        o = np.lexsort((*mask.T, own))
        mo, oo = mask[o], own[o]
        head[1:] = np.logical_or.reduce(mo[1:] != mo[:-1], 1)
        head[1:] |= oo[1:] != oo[:-1]
    d = o[head]
    return d, own[d], mask[d]


def _best_undominated(m: np.ndarray, own: np.ndarray, iota: np.ndarray,
                      l: Optional[int]) -> tuple:
    """The first l masks (all for None) of each node, in the given order,
    that contain no mask of their node before them: with every mask sorted
    after its subsets, the best l undominated ones.  m and own are grouped
    by node; iota is arange(nodes + 1).  A prefix of each node's masks is
    checked pairwise (all of them when none holds more than 2 * l), and
    lengthened for a node while it holds fewer than l.  Returns the
    positions taken, their ranks within their nodes and the count taken
    per node."""
    bound = own.searchsorted(iota)
    start = bound[:-1]
    per = bound[1:] - start
    longest = _max(per)
    want = per if l is None else np.minimum(per, l)
    reach = per if l is None or longest <= 2 * l else np.minimum(per, 2 * l)
    most = longest if reach is per else 2 * l      # bounds reach
    done = 0                            # prefix already checked
    dead = np.zeros(own.shape, bool)
    if m.shape[1] == 1:
        m = m[:, 0]
    while True:
        # the pairs (i, j), i < j, with j in [done, reach) of each node:
        # a contiguous range of the triangle
        lo = done * (done - 1) >> 1
        npair = (reach * (reach - 1) >> 1) - lo
        pend = npair.cumsum()
        if pend[-1]:
            ti, tj = _triangle(most)
            loc = _iota(pend[-1]) + (lo - pend + npair).repeat(npair)
            first = start.repeat(npair)
            pi, pj = first + ti[loc], first + tj[loc]
            a = m[pi]
            sub = (a & m[pj]) == a
            if sub.ndim > 1:
                sub = np.logical_and.reduce(sub, 1)
            dead[pj[sub]] = True
        if reach is per:
            break
        # lengthen the prefix of nodes with more masks but fewer than l
        # live in it (every dead mask lies in it)
        short = reach - np.bincount(own[dead], minlength=per.size) < want
        short &= reach < per
        if not np.count_nonzero(short):
            break
        done = reach
        reach = np.where(short, np.minimum(per, 2 * reach), reach)
        most = min(longest, 2 * most)
    live = ~dead
    if reach is not per:
        live &= _iota(own.size) < (start + reach)[own]
    # rank among the node's live masks
    seen = live.cumsum()
    rank = seen - (seen - live)[start[own]] - 1
    sel = (live & (rank < want[own])).nonzero()[0]
    return sel, rank[sel], np.bincount(own[sel], minlength=per.size)


def _decode(md, od, size, ukeys, nfirst, mult, top, k) -> tuple:
    """(S, k) ascending leaves, -1 padded, of masks over local bits up to
    top: a mask's set bits, in ascending order, are its leaves.  Returns
    them and their local bits."""
    bits = np.unpackbits(md.astype("<u8", copy=False).view(np.uint8)[
        :, :(top >> 3) + 1], bitorder="little")
    r, c = np.divmod(bits.view(bool).nonzero()[0], (top >> 3) * 8 + 8)
    at = _iota(r.size) + (r * k - (size.cumsum(dtype=np.int64) - size)[r])
    out = np.empty((2, md.shape[0] * k), np.int64)
    out.fill(-1)
    out[0, at] = ukeys[nfirst[od[r]] + c] % mult
    out[1, at] = c
    return out.reshape(2, -1, k)


def _elem_hits(md, code, d, od, plan, ukeys, nfirst, width) -> tuple:
    """The first merged candidate over exactly its node's fanins, per
    node that has one: candidate positions and node positions."""
    pos = ukeys.searchsorted(plan.efan) - nfirst[:, None]
    b = _POW2[pos & 63]
    if width == 1:
        hit = md[:, 0] == (b[:, 0] | b[:, 1] | b[:, 2])[od]
    else:
        em = np.zeros((len(pos), width), np.uint64)
        np.bitwise_or.at(em, (plan.iota[:-1, None], pos >> 6), b)
        hit = np.logical_and.reduce(md == em[od], 1)
    hit &= code[d] >= 0
    return hit.nonzero()[0], od[hit]


# the most cut lists one part of a level reads (see CutEngine._plan)
_PART = 256

_FANIN = np.arange(3)
_TRI = [0, np.zeros(0, np.int64), np.zeros(0, np.int64)]
# small aranges are views of one read-only array
_IOTA = np.arange(4096)
_IOTA.flags.writeable = False


def _iota(n: int) -> np.ndarray:
    return _IOTA[:n] if n <= _IOTA.size else np.arange(n)


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
    """The parts of one dependency level that stay the same every round;
    None for each kind of node the level does not hold skips its branch.

    A segment is the stored cut list of one source of one of the level's
    nodes: first the three fanins of every node (node 0, whose one cut is
    empty, pads a 2-input gate), then the class members, grouped by node
    in class order."""
    nodes: np.ndarray        # the level's gates, ascending
    node_list: list
    src: np.ndarray          # per segment: the node whose cuts it holds
    drop: Optional[np.ndarray]   # 1 per member segment: its trivial cut
    #                              is left out; None without members
    base: np.ndarray         # leaf-key base of each node: position * (size+1)
    sbase: np.ndarray        # (S, 1, 1) the base of each segment's node
    maj: Optional[np.ndarray]    # which nodes are 3-input gates; None
    #                              when none is
    mown: np.ndarray         # per member segment: its node's position
    sneg: np.ndarray         # per segment: FULL where its table is read
    #                          complemented (edge or phase), else 0
    xor: Optional[np.ndarray]    # (N,) which nodes are XOR2 gates; None
    #                              when none is
    trivial: np.ndarray      # (N, k) the node itself, -1 padded
    efan: np.ndarray         # (N, 3) leaf keys of each node's fanins
    iota: np.ndarray         # arange(N + 1)
    nbits: int               # bits of the highest node position


class Level:
    """One dependency level of a round, after its cuts are stored.

    `nodes` (and `node_list`) are the level's gates, ascending; `count`
    is the number of cuts stored per node before its trivial cut (0 for a
    node whose pool is empty).  Over those cuts, grouped by node in stored
    order (with `elem`, a node's elementary merge follows its pool cuts),
    `key` holds the caller's key columns, `owner` each one's node
    position, `leaves` its ascending leaf row (-1 padded), `size` its leaf
    count and `tt` its table word."""

    def __init__(self, plan, key, owner, count, leaves, size, tt):
        self.nodes, self.node_list = plan.nodes, plan.node_list
        self.key, self.owner, self.count = key, owner, count
        self.leaves, self.size, self.tt = leaves, size, tt

    @property
    def empty(self) -> list:
        """The nodes whose pool is empty."""
        return [n for n, c in zip(self.node_list, self.count.tolist())
                if not c]


class CutEngine:
    """Cut sets of one network's nodes, built one dependency level at a
    time by `round`.

    `classes` maps a representative to its (member, phase) pairs; a member
    cut enters the representative's pool with its table complemented when
    the phase is set.  `order` lists the gates so that every fanin and
    class member of a node comes before it (default: ascending ids, which
    holds without classes).  PIs and the constant hold their trivial cut;
    every gate's stored list ends with its trivial cut.  Between rounds
    the engine holds only the current round's stored lists (`cuts`,
    `words`), which the next round overwrites.
    """

    def __init__(self, net, k: int, classes: Optional[dict] = None,
                 order=None):
        self.net = net
        self.k = k
        self.classes = classes or {}
        size = len(net)
        self._key_mult = size + 1
        # one leaf row and table word per stored cut of the current round:
        # node n's list is rows start[n] .. start[n] + count[n] - 1; the
        # constant's one cut is empty
        self._start = np.zeros(size, np.int64)
        self._count = np.zeros(size, np.int64)
        self._rows = np.full((max(64, 8 * size), k), -1, np.int32)
        self._tts = np.zeros(len(self._rows), np.uint64)
        self._count[0] = 1
        for i, n in enumerate(net.pis, start=1):
            self._rows[i, 0] = n
            self._start[n], self._count[n] = i, 1
        self._base = self._nrows = 1 + len(net.pis)
        self._tts[1:self._base] = _VAR0.bits
        # an upper bound on the length of every list stored so far
        self._longest = 1
        self._plans = self._plan(net.gates() if order is None else order)

    def _plan(self, order) -> list[_Plan]:
        """ASAP levels over fanins plus class members, and each level's
        fixed arrays, sliced from arrays over all gates."""
        net, classes, mult = self.net, self.classes, self._key_mult
        fanins, kind, get = net.fanins, net.kind, classes.get
        level = [0] * len(net)
        info = []
        for n in order:
            (a, na), (b, nb), (c, nc) = (*fanins(n), (0, False))[:3]
            lv = max(level[a], level[b], level[c])
            ms = get(n)
            if ms:
                lv = max(lv, *[level[m] for m, _ in ms])
            level[n] = lv + 1
            k_ = kind(n)
            info.append((lv, n, a, b, c, na, nb, nc, k_ == XOR2, k_ == MAJ3,
                         len(ms) if ms else 0))
        if not info:
            return []
        cols = np.array(info, np.int64)
        cols = cols[np.lexsort((cols[:, 1], cols[:, 0]))]
        garr, fan = cols[:, 1], cols[:, 2:5]
        gates = garr.tolist()
        # fanin phases as table masks; node 0 pads a 2-input gate
        fneg = np.where(cols[:, 5:8] != 0, np.uint64(FULL), np.uint64(0))
        xor, maj = cols[:, 8] != 0, cols[:, 9] != 0
        trivial = np.full((len(gates), self.k), -1, np.int64)
        trivial[:, 0] = garr
        # a level is built in parts of at most _PART cut lists read, which
        # bounds the kernel's working arrays
        bounds, size, prev = [0], 0, -1
        for i, (lv, reads) in enumerate(zip(cols[:, 0].tolist(),
                                            (cols[:, 10] + 3).tolist())):
            if i and (lv != prev or size + reads > _PART):
                bounds.append(i)
                size = 0
            size += reads
            prev = lv
        bounds.append(len(gates))
        # per gate: its part's start and its position in its part
        sizes = np.diff(bounds)
        at = np.arange(len(gates)) - np.repeat(bounds[:-1], sizes)
        base = at * mult
        efan = np.where(fan > 0, fan, fan[:, :1]) + base[:, None]
        fan, sbase, fneg = fan.ravel(), base.repeat(3), fneg.ravel()
        # per part: its XOR, MAJ and member counts
        n_xor, n_maj, n_mem = np.add.reduceat(np.stack(
            (xor, maj, cols[:, 10])), bounds[:-1], axis=1).tolist()
        iota = np.arange(_max(sizes) + 1)
        plans = []
        for lo, hi, nx, nm, nb in zip(bounds, bounds[1:], n_xor, n_maj,
                                      n_mem):
            node_list = gates[lo:hi]
            src, sb, sneg = fan[3 * lo:3 * hi], sbase[3 * lo:3 * hi], \
                fneg[3 * lo:3 * hi]
            drop = mown = None
            if nb:
                members = [(j, m, ph) for j, n in enumerate(node_list)
                           for m, ph in get(n, ())]
                mown = np.array([j for j, _, _ in members], np.int64)
                src = np.concatenate((src, [m for _, m, _ in members]))
                sb = np.concatenate((sb, mown * mult))
                drop = np.array([0] * (3 * (hi - lo)) + [1] * len(members))
                sneg = np.concatenate((sneg, np.array(
                    [FULL if ph else 0 for _, _, ph in members], np.uint64)))
            plans.append(_Plan(
                garr[lo:hi], node_list, src, drop, base[lo:hi],
                sb[:, None, None],
                maj[lo:hi] if nm else None, mown, sneg,
                xor[lo:hi] if nx else None,
                trivial[lo:hi], efan[lo:hi], iota[:hi - lo + 1],
                (hi - lo - 1).bit_length()))
        return plans

    def round(self, key, l: Optional[int] = None, elem: bool = False):
        """Pool, score, truncate and store every gate's cuts, one level
        part at a time, yielding each part's `Level` once its cuts are
        stored.  A caller may stop at any part: the next round stores
        every list again.

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
        for plan in self._plans:
            yield self._level(plan, key, l, elem)

    def _level(self, plan: _Plan, key, l, elem: bool) -> Level:
        k, mult = self.k, self._key_mult
        # every segment's stored cuts, padded to ls slots
        srow = self._start[plan.src]
        sc = self._count[plan.src]
        if plan.drop is not None:
            sc -= plan.drop
        ls = _max(sc)
        slot = _iota(ls)
        sok = slot < sc[:, None]
        rowat = srow[:, None] + slot
        leaves = self._rows[rowat]
        valid = leaves >= 0
        valid &= sok[..., None]
        ukeys, nfirst, bit = _local_bits((leaves + plan.sbase)[valid],
                                         plan.base, mult)
        del leaves
        top = _max(bit)
        width = (top >> 6) + 1
        smask = _masks(valid, bit, width).reshape(-1, width)  # per slot
        del valid, bit
        own, code, mask, pc, lc3 = _merged(plan, smask, sok, sc, ls, k)
        d, od, md = _first_occurrences(own, mask, top, plan.nbits)
        size = pc[d]
        leaves, local = _decode(md, od, size, ukeys, nfirst, mult, top, k)
        # the caller's order, ties in pool order, then the best l cuts of
        # each node that contain no other
        cols = key(leaves, size)
        order = np.lexsort((d, *cols[::-1], od))
        sown = od[order]
        sel, rank, count = _best_undominated(md[order], sown, plan.iota, l)
        pick, cown = order[sel], sown[sel]
        if elem:
            ep, eo = _elem_hits(md, code, d, od, plan, ukeys, nfirst, width)
            stored = np.zeros(own.shape, bool)
            stored[d[pick]] = True
            keep = ~stored[d[ep]]
            ep, eo = ep[keep], eo[keep]
            grp = np.concatenate((cown, eo)).argsort(kind="stable")
            pick = np.concatenate((pick, ep))[grp]
            cown = np.concatenate((cown, eo))[grp]
            rank = np.concatenate((rank, count[eo]))[grp]
            count = count + np.bincount(eo, minlength=count.size)
        crow = leaves[pick]
        ctt = self._store(plan, cown, rank, count, crow, (
            pick, code, d, local, smask, rowat, ls, lc3))
        return Level(plan, [c[pick] for c in cols], cown, count, crow,
                     size[pick], ctt)

    def _store(self, plan, cown, crank, count, crow, src) -> np.ndarray:
        """Store each level node's chosen cuts (grouped by node, each at its
        slot in crank) and its trivial cut, with their table words, the
        chosen cuts' composed from src (see _compose).  Returns the chosen
        cuts' words."""
        total = count + 1
        start = total.cumsum()
        start += self._nrows - total
        n_cut = cown.shape[0]
        need = self._nrows + n_cut + total.shape[0]
        if n_cut >= self._longest:
            self._longest = n_cut + 1
        # a level reads up to the longest list past a list's start
        room = need + self._longest
        if room > self._rows.shape[0]:
            grown = np.full((2 * room, self.k), -1, np.int32)
            grown[:self._nrows] = self._rows[:self._nrows]
            self._rows = grown
            tts = np.zeros(2 * room, np.uint64)
            tts[:self._nrows] = self._tts[:self._nrows]
            self._tts = tts
        at = start[cown] + crank
        self._rows[at] = crow
        end = start + count
        self._rows[end] = plan.trivial
        self._tts[end] = _VAR0.bits
        self._start[plan.nodes] = start
        self._count[plan.nodes] = total
        self._nrows = need
        ctt = self._tts[at] = self._compose(plan, cown, src)
        return ctt

    def _compose(self, plan, own, src) -> np.ndarray:
        """Table words of the chosen cuts (of nodes own), from src = (pick,
        code, d, local, smask, rowat, ls, lc3), _level's arrays (the codes
        are _merged's).  A cut composes its word from one (segment, slot)
        per fanin, over the first two unless the level has 3-input gates
        (node 0's one empty cut, word 0, pads a 2-input gate); a member
        cut reads its member's slot as every fanin, which AND and MAJ pass
        through."""
        pick, code, d, local, smask, rowat, ls, lc3 = src
        code, local = code[d[pick]], local[pick]
        nf = 2 if plan.maj is None else 3
        seg = 3 * own + _FANIN[:nf, None]
        slot = np.empty(seg.shape, np.int64)
        rest = code
        for f in range(nf - 1, 0, -1):
            rest, slot[f] = np.divmod(rest, (ls, ls, lc3)[f])
        slot[0] = rest
        member = None
        if plan.drop is not None:
            member = code < 0
            g, at = np.divmod(-1 - code, ls)
            seg = np.where(member, 3 * len(plan.node_list) + g, seg)
            slot = np.where(member, at, slot)
        flat = seg * ls + slot
        # bit t of a fanin's position mask: whether the merged cut's
        # leaf t is among the fanin cut's leaves, read from the fanin's
        # leaf mask at the leaf's local bit.  A padding leaf (-1) reads
        # the top bit of the last word: that can only add positions past
        # the cut's real leaves, which the expansion gives to variables
        # the fanin's table does not depend on.
        fm = smask[flat]
        if fm.shape[-1] > 1:
            fm = fm[_FANIN[:nf, None, None], _iota(own.size)[:, None],
                    local >> 6]
        pos = np.packbits((fm & _POW2[local & 63]) != 0, axis=-1,
                          bitorder="little")[..., 0]
        w = _widen(self._tts[rowat.take(flat)], pos)
        w ^= plan.sneg[seg]
        # MAJ(a, b, 0) is an AND2's table
        a, b = w[0], w[1]
        out = a & b if nf == 2 else (a & b) | (w[2] & (a | b))
        if plan.xor is not None:
            xor = plan.xor[own] if member is None else plan.xor[own] & ~member
            out = np.where(xor, a ^ b, out)
        return out

    def cuts(self, n: int) -> list[tuple]:
        """Leaf tuples of n's stored list in the current round, the trivial
        cut last for a gate."""
        s = self._start[n]
        return [tuple(r[:r.index(-1)]) if r[-1] < 0 else tuple(r)
                for r in self._rows[s:s + self._count[n]].tolist()]

    def words(self, n: int) -> list[int]:
        """Table words of n's stored list, as `cuts(n)` lists them."""
        s = self._start[n]
        return self._tts[s:s + self._count[n]].tolist()


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

    out = {0: [Cut((), 0, _CONST0)]}
    for n in net.pis:
        out[n] = [Cut((n,), leaf_sig(n), _VAR0)]
    # leaves as the network's own node ints, shared by every tuple
    ints = np.array(range(len(net)), object)
    for lv in eng.round(key, l):
        cuts = [Cut(tuple(row[:z]), sig, TruthTable(tt, z))
                for row, z, sig, tt in zip(
                    ints[lv.leaves].tolist(), lv.size.tolist(),
                    lv.key[1].tolist(), lv.tt.tolist())]
        at = 0
        for n, cnt in zip(lv.node_list, lv.count.tolist()):
            out[n] = cuts[at:at + cnt] + [Cut((n,), leaf_sig(n), _VAR0)]
            at += cnt
    return {n: out[n] for n in (0, *net.pis, *net.gates())}


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
