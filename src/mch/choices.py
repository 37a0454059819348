"""Mixed structural choice construction.

Builds a choice network from a single input network: candidates generated
per node by level-oriented (critical path) or area-oriented (everything
else) synthesis strategies are installed alongside the original structure
and marked as choices of their representative node.  A candidate is a
small network over its cut or MFFC leaves, and a query returns its cached,
structurally distinct candidates.

The data flows in three steps, none of which makes an object per cut or
per candidate to install.  Rows: `enumerate_cuts` gives each node's cuts
as rows of the cut engine (`cuts.NodeCuts`: leaves, leaf count and table
word; a Cut is made only when one is indexed or iterated), and
`multi_strategy_choices` reads them as plain ints.  One query per table: a
strategy builds its candidates once per distinct (table word, leaf count)
and serves later cuts with that table from its cache.  A walk and proof
per node: each node's candidates are installed as they are generated, in
cut order, then its MFFC's, by running the strash walk compiled when the
query built the candidate (`Candidate.walk`, `LogicNetwork.images`) over
the leaves; strash dedupes any gate the arena already has.  The `deduped`
count also holds the one-gate candidates over a gate's own fanins, which
strash would fold into the gate itself and which are counted without a
walk.  External choices (`add_external_choices`) are inserted over the
arena's PIs.

Every member is proven where it is installed.  A candidate's member is
kept only when its table over the leaves equals the table of the cut or
MFFC it was built from, or that table's complement; the member's cone
stops at those leaves, so this is exact at any PI count.  The table is
read in the same pass that installs the member: the arena nodes its walk
reached are evaluated from their stored kinds and fanins
(`LogicNetwork.evaluate`, which `cut_truth` also uses), so the proof
checks the arena, not the walk's intended gates.  External choices are
kept only when `cec` proves the two networks `equivalent`.

A representative reads its members' cuts, so no class may close a
cycle: one walk, `ChoiceNetwork.order`, orders and checks the classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .network import AND2, CODE, LogicNetwork, Signal
from .cuts import NodeCuts, enumerate_cuts
from .strategies import (StrategyLibrary, area_oriented_candidates,
                         level_oriented_candidates)
from .tt import FULL, MAX_VARS, VAR_MASKS, TruthTable, cut_truth
from .verify import EQUIVALENT, cec, compare


class MchParams(NamedTuple):
    k: int = 4           # cut size
    l: int = 8           # cuts kept per node
    K: int = 8           # MFFC leaf bound
    r: float = 0.8       # critical-path depth ratio


# the most members a node's class takes from one construction
MAX_MEMBERS = 8


@dataclass
class ChoiceStats:
    critical_nodes: int = 0
    other_nodes: int = 0
    generated: int = 0
    deduped: int = 0
    verified: int = 0
    failed: int = 0
    classes: int = 0
    members: int = 0


class ChoiceError(Exception):
    def __init__(self, message: str, member: Optional[int] = None):
        super().__init__(message)
        self.member = member  # the offending choice member, when there is one


@dataclass
class ChoiceNetwork:
    """A logic network plus equivalence classes of choice nodes.

    The base arena holds both the original structure (whose nodes are the
    representatives) and every installed candidate gate.  POs reference
    representatives only.
    """

    base: LogicNetwork
    repr_of: dict[int, int] = field(default_factory=dict)   # member -> repr
    # repr -> its members, in install order
    classes: dict[int, list[int]] = field(default_factory=dict)
    phase: dict[int, bool] = field(default_factory=dict)    # member vs repr
    stats: ChoiceStats = field(default_factory=ChoiceStats)

    def class_reprs(self) -> list[int]:
        return sorted(self.classes)

    def members(self, r: int) -> list[int]:
        return self.classes.get(r, [])

    def in_class(self, n: int) -> bool:
        return n in self.repr_of or n in self.classes

    def add_choice(self, r: int, member: int, phase: bool) -> bool:
        if member == r or self.in_class(member):
            return False
        if r in self.repr_of:
            raise ChoiceError(f"representative {r} is itself a choice")
        self.classes.setdefault(r, []).append(member)
        self.repr_of[member] = r
        self.phase[member] = phase
        return True

    def order(self) -> list[int]:
        """Gates, each after its fanins and members: one walk over both,
        whose order the mapper's rounds follow; a dependency cycle raises
        ChoiceError naming a member on it.  Gates start it in id order, and
        a gate's fanins have lower ids, so one without members that no
        walk has reached yet is ordered as it starts."""
        code, *lits = self.base.columns()
        gate = np.array(code) >= CODE[AND2]
        # per node its fanin node ids; node 0, which is ordered, pads
        fan = (np.array(lits).T >> 1).tolist()
        # 1 while a gate's dependencies are pending, 2 once it is ordered
        state = np.where(gate, 0, 2).tolist()
        order: list[int] = []
        for start in np.flatnonzero(gate).tolist():
            if state[start] == 2:
                continue
            if start not in self.classes:
                state[start] = 2
                order.append(start)
                continue
            stack = [start]
            while stack:
                n = stack[-1]
                if state[n] == 2:
                    stack.pop()
                    continue
                pend = [f for f in fan[n] if state[f] != 2]
                ms = self.classes.get(n)
                if ms:
                    pend += [d for d in ms if state[d] != 2]
                if pend:
                    if state[n] == 1 and any(state[d] == 1 for d in pend):
                        self._cycle(state, fan, n, pend)
                    state[n] = 1
                    stack.extend(pend)
                    continue
                stack.pop()
                state[n] = 2
                order.append(n)
        return order

    def _cycle(self, state: list, fan: list, n: int, pend: list):
        """Raise for a cycle through n, naming a member on it: pending
        nodes lead from n's pending dependencies back to n."""
        todo = [d for d in pend if state[d] == 1]
        came = dict.fromkeys(todo, n)  # node -> the node it was reached from
        for x in todo:
            for y in fan[x] + self.members(x):
                if state[y] == 1 and y not in came:
                    came[y] = x
                    todo.append(y)
        m = n  # fanins have lower ids, so a cycle steps into a member
        while m not in self.members(came[m]):
            m = came[m]
        raise ChoiceError(f"choice {m} is on a dependency cycle", m)

    def check_invariants(self) -> None:
        """Raise ChoiceError, naming the member, unless every member sits
        in one class of a gate, off every dependency cycle, and computes
        the representative's function in its phase.

        The cycles, also one through several classes, are found by the
        walk that orders the classes (`order`).  `build_mch` and
        `add_external_choices` prove each member when they install it;
        this check is for classes made any other way (`add_choice`,
        `read_mch`).  It compares each member with its representative
        over `verify.input_runs`, so a pass is a proof up to
        EXHAUSTIVE_PI_LIMIT PIs; above it, sampled patterns only reject.
        """
        net = self.base
        pairs = [(r, m) for r in self.class_reprs() for m in self.members(r)]
        seen: set[int] = set()
        for r, m in pairs:
            if m in seen:
                raise ChoiceError(f"node {m} appears in two classes", m)
            seen.add(m)
            if not net.is_gate(r):
                raise ChoiceError(f"representative {r} is not a gate", m)
        self.order()

        def sides(words: list, width: int) -> tuple:
            vals = net.simulate(dict(zip(net.pis, words)), width)
            flip = (1 << width) - 1
            return ([vals[m] for _, m in pairs],
                    [vals[r] ^ (flip if self.phase[m] else 0)
                     for r, m in pairs])

        cex = compare(len(net.pis), sides).counterexample
        if cex is not None:
            got, want = sides(cex, 1)
            r, m = next(p for p, g, w in zip(pairs, got, want) if g != w)
            raise ChoiceError(f"choice {m} not equivalent to "
                              f"representative {r}", m)


# -- candidate generation and install ---------------------------------


def multi_strategy_choices(netp: LogicNetwork, critical: set[int],
                           cutsets: dict[int, NodeCuts],
                           lib: StrategyLibrary,
                           params: MchParams = MchParams()) -> ChoiceNetwork:
    """Generate candidates per node and install them as choices.

    Critical-path nodes get level-oriented candidates per cut; all other
    gates get area-oriented candidates per cut and for their MFFC.

    Rows: a node's cuts are read from the cut engine's rows
    (`NodeCuts.tables`: leaves and table word), with no Cut made.  One
    query per table: a strategy builds its candidates once per distinct
    (table word, leaf count) and serves every later cut with that table
    from `StrategyLibrary.query_cache`.  A walk and proof per node: the
    node's candidates are walked and proven as they come, its cuts in
    stored order, each cut's candidates in query order, then its MFFC's
    (`_install`), until it has MAX_MEMBERS members.

    A one-gate candidate over a gate's own fanins is counted generated
    and deduped without running its walk: like every candidate it
    computes its cut's table, here the gate's function over the gate's
    fanins, so its one gate is the gate itself, which strash folds it
    into.
    """
    cn = ChoiceNetwork(netp)
    stats = cn.stats
    host = netp.tag
    # installs add gates above the original ones only, so the fanouts
    # and MFFCs of the original gates stay as they are
    fanouts = netp.fanouts()
    _, f0, f1, f2 = netp.columns()

    for n in list(netp.gates()):
        crit = n in critical
        if crit:
            stats.critical_nodes += 1
            query = level_oriented_candidates
        else:
            stats.other_nodes += 1
            query = area_oriented_candidates
        cuts = cutsets.get(n)
        rows = cuts.tables() if cuts is not None else ()
        fanins = sorted({f0[n] >> 1, f1[n] >> 1, f2[n] >> 1} - {0})
        have = 0              # members installed for n
        seen = []             # leaves of n's cuts with candidates
        for leaves, bits in rows:
            z = len(leaves)
            if z < 2:
                continue
            seen.append(leaves)
            have = _install(cn, n, leaves, bits,
                            query(lib, TruthTable(bits, z), host), have,
                            leaves == fanins)
        if crit:
            continue
        cone, leaves = netp.mffc(n, params.K, fanouts)
        leaves = sorted(leaves)
        # an MFFC over one of n's cuts has that cut's table, so its
        # candidates would repeat the cut's exactly; its members are gates
        if 2 <= len(leaves) <= MAX_VARS and len(cone) >= 2 \
                and leaves not in seen:
            tt = cut_truth(netp, n, leaves)
            _install(cn, n, leaves, tt.bits, query(lib, tt, host), have,
                     False)

    stats.classes = len(cn.classes)
    stats.members = len(cn.repr_of)
    return cn


def _install(cn: ChoiceNetwork, node: int, leaves: list, bits: int,
             cands: tuple, have: int, elementary: bool) -> int:
    """Run each candidate's precompiled walk over leaves, while node has
    fewer than MAX_MEMBERS members (`have`), and install the new member
    when its table over leaves is bits (phase 0) or its complement
    (phase 1); any other member counts as failed, and a root strash
    already held counts as deduped.  With `elementary` (leaves are the
    node's own fanins) a one-gate candidate is deduped without a walk.
    Returns node's member count.

    The table is read from the arena nodes the walk reached: its step
    images, in step order, are topological, and the member's cone above
    the leaves is made of them, the leaves and the constant, so
    `LogicNetwork.evaluate` over them from their stored kinds and fanins
    gives `cut_truth(net, member, leaves)` without walking the cone
    again."""
    net = cn.base
    stats = cn.stats
    for cand in cands:
        if have >= MAX_MEMBERS:
            break
        stats.generated += 1
        if elementary and cand.size == 1:
            stats.deduped += 1
            continue
        before = len(net)
        walk = cand.walk
        vals = net.images(walk, [2 * leaves[j] for j in cand.support])
        member = vals[walk.outputs[0] >> 1] >> 1
        if member < before:
            stats.deduped += 1
            continue
        memo = dict(zip(leaves, VAR_MASKS))
        memo[0] = 0
        got = net.evaluate([v >> 1 for v in vals[walk.inputs + 1:]], memo,
                           FULL)[member]
        if got != bits and got != bits ^ FULL:
            stats.failed += 1
            continue
        stats.verified += 1
        if cn.add_choice(node, member, got != bits):
            have += 1
    return have


# -- top-level MCH construction ---------------------------------------


def build_mch(net: LogicNetwork, lib: StrategyLibrary,
              params: MchParams = MchParams(),
              mix_target: Optional[str] = None) -> ChoiceNetwork:
    """Embed, classify paths, enumerate cuts, and install choices."""
    netp = net.one_to_one_map(mix_target or net.tag)
    critical = netp.critical_path_nodes(params.r)
    cutsets = enumerate_cuts(netp, params.k, params.l)
    return multi_strategy_choices(netp, critical, cutsets, lib, params)


def add_external_choices(cn: ChoiceNetwork,
                         other: LogicNetwork) -> ChoiceNetwork:
    """Merge a network that `cec` proves equivalent as additional choices:
    each output's new node becomes a choice of the base output's node.
    Raises ChoiceError when the verdict is anything but `equivalent`."""
    base = cn.base
    if len(base.pis) != len(other.pis) or \
            len(base.outputs) != len(other.outputs):
        raise ChoiceError("PI/PO interface mismatch")
    verdict = cec(base, other)
    if verdict.status != EQUIVALENT:
        where = (f" (they differ on input {verdict.counterexample})"
                 if verdict.counterexample else "")
        raise ChoiceError(f"external choices need a proof of equivalence, "
                          f"but cec says {verdict.status}{where}")

    outs = base.insert(other, [Signal(bp) for bp in base.pis])
    for sb, snew in zip(base.outputs, outs):
        if snew.node == sb.node:
            continue
        rep, member = sb.node, snew.node
        if not base.is_gate(rep) or not base.is_gate(member):
            continue
        if cn.in_class(member) or rep in cn.repr_of:
            continue
        if rep in base.tfi([member]):
            continue
        cn.stats.verified += 1
        cn.add_choice(rep, member, sb.neg != snew.neg)
    cn.stats.classes = len(cn.classes)
    cn.stats.members = len(cn.repr_of)
    return cn
