"""K-feasible priority cuts: the one choice-aware cut engine.

`CutEngine` builds the cut pools of a whole dependency level at once.  The
caller gives each node's ASAP level over its fanins plus class members
(`ChoiceNetwork.order` computes them in its walk, and
`LogicNetwork.compute_levels` without classes), so no node of a level
reads the cuts of another, and one round (`CutEngine.round`) walks them
bottom-up, a large level in parts that bound its working arrays.
Per level part, on numpy arrays, each stage handed what the one before
it computed:

- gather: every source list (the node's fanins' stored cuts, then its
  class members' without their trivial cut) padded to one slot count; a
  slot past its list's end reads row 0, the constant's empty cut;
- local bits: each node's distinct source leaves get bit numbers in
  ascending leaf order, so a leaf set is a row of `W` uint64 words: union
  is `|`, size is a popcount and `a & b == a` is containment.  A slot past
  its list's end gets a full mask, which no union within k contains;
- merge: the k-bounded ORs of the fanin cut masks in fanin-product order,
  then a representative's member cuts, each with a code naming the slots
  it came from.  In a part with members, where member cuts repeat many
  pool cuts, each (node, mask) keeps its first occurrence; elsewhere a
  rare repeat is dominated by its first copy below;
- decode: every cut from its mask to ascending leaves and their local
  bits;
- order: the caller's vectorized key sorts each node's cuts, ties in pool
  order.  A key never sorts a cut after one of its supersets, so a cut is
  dominated exactly when a cut sorted before it is its subset: the first
  `l` undominated cuts, flagged by a pairwise subset test over a prefix
  of the order, are the best `l` of the dominance-filtered pool.  The
  same pass reports a node whose pool is empty;
- store: the flagged cuts, grouped by node, then each node's trivial cut,
  at rows that follow from each node's first pick.

Every stored cut carries its truth table as one 64-bit word (`tt.py`
tables: a function over v leaves, padded by replication), which the level
composes on arrays from the slots its code names: each fanin cut's word
is expanded to the merged leaves by byte lookups keyed by the positions
of its leaves among them (only the bytes of the first 2 ** k minterms,
then repeated), complemented by the fanin's phase and combined by AND,
XOR or MAJ3; a member cut reads its member's word as every fanin,
complemented by its phase.  A round reads nothing an earlier round stored
but the lists it overwrites, so every round is the same as a first one.
A round's caller reads each level part's stored cuts on arrays
(`Level`); any other reader reads a node's list one way, as (leaves,
table word) pairs from one int-list copy of the stored rows (`CutRows`),
made on the first read after they change.
A level's fixed cost in numpy calls and operators is held to a budget by
`tests/test_call_budget.py`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .network import AND2, CODE, MAJ3, XOR2
from .tt import FULL, TruthTable

_SIG_MULT = 0x9E3779B97F4A7C15
_VAR0 = TruthTable.var(0, 1)


def leaf_sig(n: int) -> int:
    return 1 << (((n * _SIG_MULT) >> 58) & 63)


def sig_of(leaves) -> int:
    s = 0
    for n in leaves:
        s |= leaf_sig(n)
    return s


class CutRows(NamedTuple):
    """Stored cuts as flat lists of ints: node n's list is
    cuts start[n] .. stop[n] - 1, and cut i has size[i] leaves,
    leaves[i * k:i * k + size[i]] in ascending order, and table word
    words[i].  Ints are not tracked by the cyclic collector, so rows held
    for a whole build cost it nothing, where one object per cut would."""
    k: int
    start: list
    stop: list
    leaves: list
    size: list
    words: list

    def tables(self, n: int) -> list[tuple]:
        """(leaves, table word) of each cut of n's list, its leaves as a
        list; the trivial cut is last for a gate."""
        k, leaves, size, words = self.k, self.leaves, self.size, self.words
        return [(leaves[i * k:i * k + size[i]], words[i])
                for i in range(self.start[n], self.stop[n])]


class NodeCuts:
    """One node's cut list in rows that all nodes share: its length, and
    its (leaves, table word) pairs (`tables`), made only when read."""

    __slots__ = ("rows", "node")

    def __init__(self, rows: CutRows, node: int):
        self.rows, self.node = rows, node

    def tables(self) -> list[tuple]:
        return self.rows.tables(self.node)

    def __len__(self) -> int:
        return self.rows.stop[self.node] - self.rows.start[self.node]


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


def _widen_bytes() -> np.ndarray:
    """Flat (64, 8, 256) table: entry [pos, c, x] is the table word of the
    minterms 8c..8c+7 set in x of a cut whose leaves sit at the positions
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
    # the same per nibble, then each byte as its two nibbles
    nib = np.zeros((64, 16, 16), np.uint64)
    for b in range(4):
        nib |= np.where((x >> b) & 1 == 1, one[:, :, None, b], np.uint64(0))
    return (nib[:, 1::2, :, None] | nib[:, 0::2, None, :]).ravel()


# _widen_bytes(), made on first use (1 MiB)
_BYTES = None
# per cut size bound k: the bytes of a table word that hold its first
# 2 ** k minterms, the flat offset of each one's block in each position's
# table, and the factor that repeats them over the word (None for all 8)
_SPAN = {k: (nb, (np.arange(64)[:, None] * 8 + np.arange(nb)) * 256,
             rep if nb < 8 else None)
         for k, nb, rep in ((2, 1, 0x0101010101010101),
                            (3, 1, 0x0101010101010101),
                            (4, 2, 0x0001000100010001),
                            (5, 4, 0x0000000100000001), (6, 8, 1))}


def _widen(tt: np.ndarray, pos: np.ndarray, k: int = 6) -> np.ndarray:
    """Table words of cuts whose leaves sit at the positions set in the
    k-bit masks pos (of tt's shape) among merged cuts' leaves.  A word
    over at most k leaves repeats its first 2 ** k minterms, so only the
    bytes that hold them are expanded, and the result repeats them."""
    global _BYTES
    if _BYTES is None:
        _BYTES = _widen_bytes()
    nb, at, rep = _SPAN[k]
    b = tt.astype("<u8", copy=False)[..., None].view(np.uint8)[..., :nb]
    w = np.bitwise_or.reduce(_BYTES[at[pos] + b], axis=-1)
    return w if rep is None else w * np.uint64(rep)


# -- leaf-set masks ----------------------------------------------------

# a leaf key is its node's position in the level part << 32 | the leaf
_LEAF = (1 << 32) - 1
# bit b of a mask word, per b
_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)
# bit b of a byte, per b: with @, a (..., k) bool array as a k-bit number
_BIT = np.uint8(1) << np.arange(8, dtype=np.uint8)


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


def _local_bits(keys: np.ndarray, base: np.ndarray) -> tuple:
    """Local bit numbers of leaf keys (position << 32 | leaf): each
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
    bit[o] = new.cumsum() - 1 - nfirst[keys >> 32]
    return ukeys, nfirst, bit


def _merged(plan, smask, ls, k) -> tuple:
    """The candidate cuts of a level part, in pool order: per node, the
    unions within k of its first two fanins' cuts in fanin-product order
    (for a 3-input gate, each then with the third fanin's cuts), then its
    members' cuts in class order.  A slot past a list's end holds a full
    mask, so no union with it is within k.  Returns each candidate's node
    position, code, mask and leaf count.  The code of a merged cut is its
    product's index within its node over the (ls, ls) grid of its first
    two fanins' slots, or the (ls, ls, ls) grid of all three in a part
    with 3-input gates (where node 0's one empty cut is a 2-input gate's
    third fanin); that of a member cut is -1 - (its index in the part's
    (members, ls) grid)."""
    n3, width = plan.fans, smask.shape[-1]
    fm = smask[:n3].reshape(-1, 3, ls, width)
    m = (fm[:, 0, :, None] | fm[:, 1, None]).reshape(-1, width)
    pc = _popcount(m)
    flat = (pc <= k).nonzero()[0]
    own, code = np.divmod(flat, ls * ls)
    mask, pc = m[flat], pc[flat]
    if plan.maj is not None:
        # the pairs of 3-input gates, each with the third fanin's cuts
        three = plan.maj[own]
        t_own, t_code = own[three], code[three] * ls
        m = (mask[three][:, None] | fm[t_own, 2]).reshape(-1, width)
        t_pc = _popcount(m)
        flat = (t_pc <= k).nonzero()[0]
        pair, third = np.divmod(flat, ls)
        two = ~three
        own = np.concatenate((own[two], t_own[pair]))
        code = np.concatenate((code[two] * ls, t_code[pair] + third))
        mask = np.concatenate((mask[two], m[flat]))
        pc = np.concatenate((pc[two], t_pc[flat]))
    if plan.drop is not None:
        mm = smask[n3:].reshape(-1, width)
        m_pc = _popcount(mm)
        flat = (m_pc <= k).nonzero()[0]
        own = np.concatenate((own, plan.mown[flat // ls]))
        code = np.concatenate((code, -1 - flat))
        mask = np.concatenate((mask, mm[flat]))
        pc = np.concatenate((pc, m_pc[flat]))
    return own, code, mask, pc


def _first_occurrences(own: np.ndarray, mask: np.ndarray, top: int,
                       nbits: int) -> np.ndarray:
    """The index of the first occurrence of each (node, mask), ascending.
    A mask over local bits up to top sorts as one word with its node
    position (nbits bits) above it when both fit."""
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
    first = np.zeros(own.shape, bool)
    first[o[head]] = True
    return first.nonzero()[0]


def _decode(md, od, size, ukeys, nfirst, top, k) -> np.ndarray:
    """(2, S, k) ascending leaves and their local bits, -1 padded, of
    masks over local bits up to top: a mask's set bits, in ascending
    order, are its leaves."""
    nb = (top >> 3) + 1
    bits = np.unpackbits(md.astype("<u8", copy=False).view(np.uint8)[
        :, :nb], bitorder="little")
    r, c = np.divmod(bits.view(bool).nonzero()[0], 8 * nb)
    at = np.arange(r.size) + (
        r * k - (size.cumsum(dtype=np.int64) - size)[r])
    out = np.empty((2, md.shape[0] * k), np.int64)
    out.fill(-1)
    out[0, at] = ukeys[nfirst[od[r]] + c] & _LEAF
    out[1, at] = c
    return out.reshape(2, -1, k)


def _undominated(m: np.ndarray, own: np.ndarray, iota: np.ndarray,
                 l: Optional[int], cap: int) -> tuple:
    """Which masks are among the first l (all for None) of their node, in
    the given order, that contain no mask of their node before them: with
    every mask sorted after its subsets, the best l undominated ones (a
    repeated mask is dominated by its first copy).  m (one word per mask
    when one does) and own are grouped by node; iota is arange(nodes + 1).
    A prefix of cap = 2 * l masks of each node is checked pairwise (all of
    them when no node holds more), and lengthened for a node while it
    holds fewer than l live masks.  Returns the flags and whether every
    node has a mask."""
    bound = own.searchsorted(iota)
    start = bound[:-1]
    per = bound[1:] - start
    longest = _max(per)
    reach = per if l is None or longest <= cap else np.minimum(per, cap)
    most = longest if reach is per else cap        # bounds reach
    done = None                         # prefix already checked
    dead = np.zeros(own.shape, bool)
    # the pairs (i, j), i < j, with j in [done, reach) of each node: a
    # contiguous range of the triangle
    ti, tj, tri = _triangle(most)
    npair = tri[reach]
    while True:
        pend = npair.cumsum()
        total = pend[-1]
        if total:
            skip = pend - npair
            if done is not None:
                skip -= tri[done]
            loc = np.arange(total) - skip.repeat(npair)
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
        short = reach - np.bincount(own[dead], minlength=per.size) < l
        short &= reach < per
        if not np.count_nonzero(short):
            break
        done = reach
        reach = np.where(short, np.minimum(per, 2 * reach), reach)
        most = min(longest, 2 * most)
        ti, tj, tri = _triangle(most)
        npair = tri[reach] - tri[done]
    live = ~dead
    if reach is not per:
        live &= np.arange(own.size) < (start + reach)[own]
    if l is not None:
        # the first l live masks of each node
        seen = live.cumsum()
        live &= seen - (seen - live)[start[own]] <= l
    return live, np.count_nonzero(per) == per.size


# the most cut lists one part of a level reads (see CutEngine._plan)
_PART = 256

_FANIN = np.arange(3)
_TRI = [0, np.zeros(0, np.int64), np.zeros(0, np.int64),
        np.zeros(1, np.int64)]


def _triangle(p: int) -> list:
    """Pairs (i, j), i < j < p, ordered by j, and the number of pairs of
    the first q items, q <= p: they are the first entries."""
    if _TRI[0] < p:
        q = max(p, 2 * _TRI[0])
        cnt = np.arange(q + 1)
        j = cnt[:-1].repeat(cnt[:-1])
        _TRI[:] = [q, np.arange(len(j)) - (cnt.cumsum() - cnt)[j], j,
                   cnt * (cnt - 1) >> 1]
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
    fans: int                # fanin segments: three per node
    src: np.ndarray          # per segment: the node whose cuts it holds
    drop: Optional[np.ndarray]   # 1 per member segment: its trivial cut
    #                              is left out; None without members
    base: np.ndarray         # leaf-key base of each node: position << 32
    sbase: np.ndarray        # (S, 1, 1) the base of each segment's node
    maj: Optional[np.ndarray]    # which nodes are 3-input gates; None
    #                              when none is
    mown: np.ndarray         # per member segment: its node's position
    sneg: np.ndarray         # per segment: FULL where its table is read
    #                          complemented (edge or phase), else 0
    xor: Optional[np.ndarray]    # (N,) which nodes are XOR2 gates; None
    #                              when none is
    trivial: np.ndarray      # (N, k) the node itself, -1 padded
    iota: np.ndarray         # arange(N + 1)


class Level:
    """One dependency level part of a round, after its cuts are stored.

    `nodes` (and `node_list`) are the level's gates, ascending.  Over the
    cuts stored per node before its trivial cut, grouped by node in
    stored order (with `elem`, a node's elementary merge follows its pool
    cuts), `owner` holds each one's node position, `leaves` its ascending
    leaf row (-1 padded), `size` its leaf count, `tt` its table word and
    `column(i)` the caller's i-th key column; node j's cuts are rows
    `bound[j]` to `bound[j + 1] - 1`.  `full` is False when the pool of
    some node is empty, which stores no cut for it."""

    def __init__(self, plan, cols, sizes, pick, owner, bound, full, leaves,
                 tt):
        self.nodes, self.node_list = plan.nodes, plan.node_list
        # the pool's key columns and leaf counts, and the stored cuts in it
        self._cols, self._sizes, self._pick = cols, sizes, pick
        self.owner, self.bound, self.full = owner, bound, full
        self.leaves, self.tt = leaves, tt

    def column(self, i: int) -> np.ndarray:
        return self._cols[i][self._pick]

    @property
    def size(self) -> np.ndarray:
        return self._sizes[self._pick]

    @property
    def empty(self) -> list:
        """The nodes whose pool is empty."""
        return [n for n, c in zip(self.node_list, np.diff(self.bound).tolist())
                if not c]


class CutEngine:
    """Cut sets of one network's nodes, built one dependency level at a
    time by `round`.

    `classes` maps a representative to its (member, phase) pairs; a member
    cut enters the representative's pool with its table complemented when
    the phase is set.  `levels[n]` is node n's ASAP level over its fanins
    plus its class members (0 for PIs and the constant), which groups the
    gates into dependency levels.  PIs and the constant hold their trivial
    cut; every gate's stored list ends with its trivial cut.  Between
    rounds the engine holds only the current round's stored lists, which
    the next round overwrites; `rows` reads them per node.
    """

    def __init__(self, net, k: int, classes: dict, levels):
        self.net = net
        self.k = k
        self._bit = _BIT[:k]
        self.classes = classes
        size = len(net)
        # one leaf row and table word per stored cut of the current round:
        # node n's list is rows start[n] .. end[n] - 1; row 0 is the
        # constant's one cut, which is empty
        self._start = np.zeros(size, np.int64)
        self._end = np.zeros(size, np.int64)
        self._cap = max(64, 8 * size)
        self._rows = np.full((self._cap, k), -1, np.int32)
        self._tts = np.zeros(self._cap, np.uint64)
        self._end[0] = 1
        for i, n in enumerate(net.pis, start=1):
            self._rows[i, 0] = n
            self._start[n], self._end[n] = i, i + 1
        self._base = self._nrows = 1 + len(net.pis)
        self._tts[1:self._base] = _VAR0.bits
        self._copy: Optional[CutRows] = None
        self._plans = self._plan(levels)

    def _plan(self, levels) -> list[_Plan]:
        """Each dependency level's fixed arrays, sliced from arrays over
        all gates in (level, id) order."""
        net, get = self.net, self.classes.get
        code, *lits = net.columns()
        code = np.array(code)
        garr = np.flatnonzero(code >= CODE[AND2])
        if not garr.size:
            return []
        lvs = np.array(levels)[garr]
        at = lvs.argsort(kind="stable")        # ids ascend within a level
        garr, lvs = garr[at], lvs[at]
        gates = garr.tolist()
        # per gate: its three fanin literals; node 0 pads a 2-input gate
        lit = np.array(lits, np.int64)[:, garr].T
        nmem = np.array([len(get(n, ())) for n in gates], np.int64)
        fneg = np.where(lit & 1, np.uint64(FULL), np.uint64(0))  # as masks
        kinds = code[garr]
        xor, maj = kinds == CODE[XOR2], kinds == CODE[MAJ3]
        trivial = np.full((len(gates), self.k), -1, np.int64)
        trivial[:, 0] = garr
        # a level is built in parts of at most _PART cut lists read, which
        # bounds the kernel's working arrays
        bounds, size, prev = [0], 0, -1
        for i, (lv, reads) in enumerate(zip(lvs.tolist(),
                                            (nmem + 3).tolist())):
            if i and (lv != prev or size + reads > _PART):
                bounds.append(i)
                size = 0
            size += reads
            prev = lv
        bounds.append(len(gates))
        # per gate: its part's start and its position in its part
        sizes = np.diff(bounds)
        at = np.arange(len(gates)) - np.repeat(bounds[:-1], sizes)
        base = at << 32
        fan, sbase, fneg = (lit >> 1).ravel(), base.repeat(3), fneg.ravel()
        sbase = sbase[:, None, None]
        # per part: its XOR, MAJ and member counts, and its fanin segments
        n_xor, n_maj, n_mem = np.add.reduceat(np.stack(
            (xor, maj, nmem)), bounds[:-1], axis=1).tolist()
        iota = np.arange(_max(sizes) + 1)
        b3 = (3 * np.array(bounds)).tolist()
        plans = []
        for lo, hi, lo3, hi3, n1, nx, nm, nb in zip(
                bounds, bounds[1:], b3, b3[1:], (sizes + 1).tolist(), n_xor,
                n_maj, n_mem):
            node_list = gates[lo:hi]
            src, sb, sneg = fan[lo3:hi3], sbase[lo3:hi3], fneg[lo3:hi3]
            drop = mown = None
            if nb:
                members = [(j, m, ph) for j, n in enumerate(node_list)
                           for m, ph in get(n, ())]
                mown = np.array([j for j, _, _ in members], np.int64)
                src = np.concatenate((src, [m for _, m, _ in members]))
                sb = np.concatenate((sb, (mown << 32)[:, None, None]))
                drop = np.array([0] * (hi3 - lo3) + [1] * len(members))
                sneg = np.concatenate((sneg, np.array(
                    [FULL if ph else 0 for _, _, ph in members], np.uint64)))
            plans.append(_Plan(
                garr[lo:hi], node_list, hi3 - lo3, src, drop, base[lo:hi],
                sb, maj[lo:hi] if nm else None, mown, sneg,
                xor[lo:hi] if nx else None,
                trivial[lo:hi], iota[:n1]))
        return plans

    def round(self, key, l: Optional[int] = None, elem: bool = False):
        """Pool, score, truncate and store every gate's cuts, one level
        part at a time, yielding each part's `Level` once its cuts are
        stored.  A caller may stop at any part: the next round stores
        every list again.

        key(leaves, size) returns the sort columns (primary first) of the
        pool cuts, given their (S, k) ascending leaf matrix (-1 padded)
        and leaf counts; ties keep pool order.  It must sort every cut
        before its supersets (the leaf count as the last column, after
        columns that do not fall when leaves are added, will do), and a
        repeated cut after its first copy (a function of the leaves does).
        The best `l` undominated cuts (all for None) of each node are
        stored.  With `elem`, a node's elementary fanin merge is stored
        after them even when it is dominated or cut off, so a host
        primitive always has its own cut."""
        self._nrows = self._base
        cap = None if l is None else 2 * l
        for plan in self._plans:
            yield self._level(plan, key, l, cap, elem)

    def _level(self, plan: _Plan, key, l, cap, elem: bool) -> Level:
        k = self.k
        # every segment's stored cuts, padded to ls slots; a slot past its
        # list's end reads row 0, the constant's empty cut
        srow, sc = self._start[plan.src], self._end[plan.src]
        sc -= srow
        if plan.drop is not None:
            sc -= plan.drop
        ls = _max(sc)
        slot = np.arange(ls)
        past = slot >= sc[:, None]
        rowat = srow[:, None] + slot
        rowat[past] = 0
        leaves = self._rows[rowat]
        valid = leaves >= 0
        ukeys, nfirst, bit = _local_bits((leaves + plan.sbase)[valid],
                                         plan.base)
        top = _max(bit)
        width = (top >> 6) + 1
        smask = _masks(valid, bit, width)
        smask[past] = FULL
        sflat = smask.reshape(-1, width)            # per slot
        del leaves, valid, bit
        own, code, mask, size = _merged(plan, smask, ls, k)
        if plan.drop is not None:
            # member cuts repeat many pool cuts: keep the first occurrence
            # of each (node, mask), in pool order.  Elsewhere a repeat is
            # rare, and the first copy dominates it.
            d = _first_occurrences(own, mask, top,
                                   (len(plan.node_list) - 1).bit_length())
            own, code, mask, size = own[d], code[d], mask[d], size[d]
        leaves, local = _decode(mask, own, size, ukeys, nfirst, top, k)
        # the caller's order, ties in pool order, then the best l cuts of
        # each node that contain no other
        cols = key(leaves, size)
        order = np.lexsort((*cols[::-1], own))
        sown = own[order]
        take, full = _undominated(mask[order, 0] if width == 1 else
                                  mask[order], sown, plan.iota, l, cap)
        pick = take.nonzero()[0]
        if elem:
            # each node's elementary merge, the product of its fanins'
            # trivial cuts (the last of each list), stored after the node's
            # cuts when it is within k and not among them.  Strash gives a
            # gate distinct fanins other than the constant, so no other
            # fanin product has its leaves, and a member cut with them
            # comes later in the pool.
            n3 = plan.fans
            ecode = sc[0:n3:3] * ls + sc[1:n3:3] - (ls + 1)
            if plan.maj is not None:
                ecode = ecode * ls + sc[2:n3:3] - 1
            hit = code[order] == ecode[sown]
            hit &= ~take
            pick = np.concatenate((pick, hit.nonzero()[0]))
            pick = pick[sown[pick].argsort(kind="stable")]
        cown = sown[pick]
        pick = order[pick]
        crow = leaves[pick]
        bound = cown.searchsorted(plan.iota)
        words = self._compose(plan, cown, code[pick], local[pick], sflat,
                              rowat, ls)
        self._store(plan, cown, bound, crow, words)
        return Level(plan, cols, size, pick, cown, bound, full, crow, words)

    def _store(self, plan, cown, bound, crow, words) -> None:
        """Store each level node's chosen cuts (node j's are rows bound[j]
        .. bound[j + 1] - 1 of crow and words), then its trivial cut."""
        # node j's list: rows at[j] .. at[j + 1] - 1, the trivial cut last
        nrows = self._nrows
        at = bound + plan.iota
        at += nrows
        need = int(at[-1])
        if need > self._cap:
            self._cap = 2 * need
            grown = np.full((self._cap, self.k), -1, np.int32)
            grown[:nrows] = self._rows[:nrows]
            self._rows = grown
            tts = np.zeros(self._cap, np.uint64)
            tts[:nrows] = self._tts[:nrows]
            self._tts = tts
        rows = cown + np.arange(nrows, nrows + cown.size)
        self._rows[rows] = crow
        self._tts[rows] = words
        stop = at[1:]
        end = stop - 1
        self._rows[end] = plan.trivial
        self._tts[end] = _VAR0.bits
        self._start[plan.nodes] = at[:-1]
        self._end[plan.nodes] = stop
        self._nrows = need
        self._copy = None

    def _compose(self, plan, own, code, local, smask, rowat, ls
                 ) -> np.ndarray:
        """Table words of the chosen cuts (of nodes own, local bits local),
        from their codes (see _merged) and the leaf masks smask, one row
        per (segment, slot).  A cut composes its word from one (segment,
        slot) per fanin, over the first two unless the part has 3-input
        gates (node 0's one empty cut, word 0, pads a 2-input gate); a
        member cut reads its member's slot as every fanin, which AND and
        MAJ pass through."""
        if plan.maj is None:
            nf = 2
            slot = np.array(np.divmod(code, ls))
        else:
            nf = 3
            pair, third = np.divmod(code, ls)
            slot = np.array((*np.divmod(pair, ls), third))
        seg = 3 * own + _FANIN[:nf, None]
        member = None
        if plan.drop is not None:
            member = code < 0
            g, at = np.divmod(-1 - code, ls)
            seg = np.where(member, plan.fans + g, seg)
            slot = np.where(member, at, slot)
        flat = seg * ls + slot
        # bit t of a fanin's position mask: whether the cut's leaf t is
        # among the fanin cut's leaves, read from the fanin's leaf mask at
        # the leaf's local bit.  A padding leaf (-1) reads the top bit of
        # the last word: that can only add positions past the cut's real
        # leaves, which the expansion gives to variables the fanin's table
        # does not depend on.
        fm = smask[flat]
        if fm.shape[-1] > 1:
            fm = fm[_FANIN[:nf, None, None], np.arange(own.size)[:, None],
                    local >> 6]
        pos = ((fm & _POW2[local & 63]) != 0).view(np.uint8) @ self._bit
        w = _widen(self._tts[rowat.take(flat)], pos, self.k)
        w ^= plan.sneg[seg]
        # MAJ(a, b, 0) is an AND2's table
        a, b, *c = w
        out = a & b if nf == 2 else (a & b) | (c[0] & (a | b))
        if plan.xor is not None:
            xor = plan.xor[own] if member is None else plan.xor[own] & ~member
            out = np.where(xor, a ^ b, out)
        return out

    def rows(self) -> CutRows:
        """The stored lists as ints, copied on the first read after a
        level part stores its cuts, so a round's caller reads the rows as
        they stand."""
        if self._copy is None:
            leaves = self._rows[:self._nrows]
            self._copy = CutRows(
                self.k, self._start.tolist(), self._end.tolist(),
                leaves.ravel().tolist(),
                np.count_nonzero(leaves >= 0, axis=1).tolist(),
                self._tts[:self._nrows].tolist())
        return self._copy


def enumerate_cuts(net, k: int, l: Optional[int] = None
                   ) -> dict[int, NodeCuts]:
    """Per-node priority cut sets, each a `NodeCuts` over the cut
    engine's stored rows.

    PI cut set is the trivial cut only.  Gate cut sets are dominance-filtered
    merges of the fanin cut sets, truncated to the best `l` by the structural
    comparator (fewer leaves, then lower signature, then the leaves), with
    the trivial cut always appended outside the budget.  `l=None` keeps
    everything.

    The engine's stored rows are copied once into flat int lists
    (`CutRows`) that every node's value shares, and no per-cut object is
    made here: a caller reads a node's (leaves, table word) pairs with
    `NodeCuts.tables`.  The engine's levels are the network's ASAP levels
    (`LogicNetwork.compute_levels`).
    """
    if not 2 <= k <= 6:
        raise ValueError("cut size must be in [2, 6]")
    if l is not None and l < 1:
        raise ValueError("cut limit must be >= 1")
    eng = CutEngine(net, k, {}, net.compute_levels().level)
    # leaf_sig of every node; the signature of padding is 0
    sigs = np.append(np.uint64(1) << (np.arange(
        len(net), dtype=np.uint64) * np.uint64(_SIG_MULT) >> np.uint64(58)),
        np.uint64(0))
    for _ in eng.round(lambda leaves, size: (
            size, np.bitwise_or.reduce(sigs[leaves], axis=1), *leaves.T), l):
        pass
    rows = eng.rows()
    return {n: NodeCuts(rows, n) for n in (0, *net.pis, *net.gates())}


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
