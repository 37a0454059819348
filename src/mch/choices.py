"""Mixed structural choice construction.

Builds a choice network from a single input network: candidates generated
per node by level-oriented (critical path) or area-oriented (everything
else) synthesis strategies are installed alongside the original structure
and marked as choices of their representative node.  A candidate is a
small network over its cut or MFFC leaves; installing it is one
`LogicNetwork.insert` into the arena, whose strash dedupes any gate the
arena already has.  External choices (`add_external_choices`) are
inserted the same way, over the arena's PIs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import network as nw
from .network import LogicNetwork, Signal, exhaustive_patterns
from .cuts import Cut, enumerate_cuts
from .strategies import (Candidate, StrategyLibrary,
                         area_oriented_candidates,
                         level_oriented_candidates)
from .tt import MAX_VARS, cut_truth
from .verify import cec

EXACT_PI_LIMIT = 12
SIM_WIDTH = 256


class MchParams(NamedTuple):
    k: int = 4           # cut size
    l: int = 8           # cuts kept per node
    K: int = 8           # MFFC leaf bound
    r: float = 0.8       # critical-path depth ratio
    max_members: int = 8


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
    pass


@dataclass
class ChoiceNetwork:
    """A logic network plus equivalence classes of choice nodes.

    The base arena holds both the original structure (whose nodes are the
    representatives) and every installed candidate gate.  POs reference
    representatives only.
    """

    base: LogicNetwork
    repr_of: dict[int, int] = field(default_factory=dict)   # member -> repr
    first_choice: dict[int, int] = field(default_factory=dict)
    next_choice: dict[int, Optional[int]] = field(default_factory=dict)
    phase: dict[int, bool] = field(default_factory=dict)    # member vs repr
    stats: ChoiceStats = field(default_factory=ChoiceStats)

    def class_reprs(self) -> list[int]:
        return sorted(self.first_choice)

    def members(self, r: int) -> list[int]:
        out = []
        m = self.first_choice.get(r)
        while m is not None:
            out.append(m)
            m = self.next_choice.get(m)
        return out

    def in_class(self, n: int) -> bool:
        return n in self.repr_of or n in self.first_choice

    def add_choice(self, r: int, member: int, phase: bool) -> bool:
        if member == r or self.in_class(member):
            return False
        if r in self.repr_of:
            raise ChoiceError(f"representative {r} is itself a choice")
        ms = self.members(r)
        if ms:
            self.next_choice[ms[-1]] = member
        else:
            self.first_choice[r] = member
        self.next_choice[member] = None
        self.repr_of[member] = r
        self.phase[member] = phase
        return True

    # -- invariants (test support) ------------------------------------

    def check_invariants(self, exhaustive_limit: int = EXACT_PI_LIMIT) -> None:
        net = self.base
        seen: set[int] = set()
        for r in self.class_reprs():
            for m in self.members(r):
                if m in seen:
                    raise ChoiceError(f"node {m} appears in two classes")
                seen.add(m)
                if r in net.tfi([m]):
                    raise ChoiceError(
                        f"representative {r} in TFI of choice {m}")
        # functional equivalence of all class members
        npi = len(net.pis)
        if npi <= exhaustive_limit:
            width = 1 << npi
            vals = net.simulate(exhaustive_patterns(net.pis), width)
        else:
            rng = random.Random(99)
            width = SIM_WIDTH
            pats = {n: rng.getrandbits(width) for n in net.pis}
            vals = net.simulate(pats, width)
        mask = (1 << width) - 1
        for r in self.class_reprs():
            for m in self.members(r):
                want = vals[r] ^ (mask if self.phase[m] else 0)
                if vals[m] != want:
                    raise ChoiceError(
                        f"choice {m} not equivalent to representative {r}")


# -- candidate generation (pure phase) --------------------------------


class _Spec(NamedTuple):
    node: int
    leaves: tuple
    candidate: Candidate


def multi_strategy_choices(netp: LogicNetwork, critical: set[int],
                           cutsets: dict[int, list[Cut]], K: int,
                           lib: StrategyLibrary,
                           params: MchParams = MchParams()) -> ChoiceNetwork:
    """Generate candidates per node and assemble the choice network.

    Critical-path nodes get level-oriented candidates per cut; all other
    gates get area-oriented candidates per cut and for their MFFC.
    """
    cn = ChoiceNetwork(netp)
    stats = cn.stats
    host = netp.tag
    specs: list[_Spec] = []
    fanouts = netp.fanouts()  # netp is not modified until _install_specs

    for n in list(netp.gates()):
        if n in critical:
            stats.critical_nodes += 1
            for cut in cutsets.get(n, []):
                if len(cut.leaves) < 2 or cut.tt is None:
                    continue
                for cand in level_oriented_candidates(lib, cut.tt, host):
                    specs.append(_Spec(n, cut.leaves, cand))
        else:
            stats.other_nodes += 1
            for cut in cutsets.get(n, []):
                if len(cut.leaves) < 2 or cut.tt is None:
                    continue
                for cand in area_oriented_candidates(lib, cut.tt, host):
                    specs.append(_Spec(n, cut.leaves, cand))
            cone = netp.mffc(n, K, fanouts)
            leaves = netp.mffc_leaves(cone)
            gates_in_cone = sum(1 for m in cone if netp.is_gate(m))
            if 2 <= len(leaves) <= MAX_VARS and gates_in_cone >= 2:
                tt = cut_truth(netp, n, leaves)
                for cand in area_oriented_candidates(lib, tt, host):
                    specs.append(_Spec(n, tuple(leaves), cand))

    _install_specs(cn, specs, params)
    stats.classes = len(cn.first_choice)
    stats.members = len(cn.repr_of)
    return cn


def _install_specs(cn: ChoiceNetwork, specs: list[_Spec],
                   params: MchParams) -> None:
    net = cn.base
    stats = cn.stats
    sim = _IncrementalSim(net)
    count: dict[int, int] = {}  # members installed per node
    for node, leaves, cand in specs:
        if count.get(node, 0) >= params.max_members:
            continue
        stats.generated += 1
        before = len(net)
        root = net.insert(cand.net,
                          [(leaves[j], False) for j in cand.support])[0]
        if root.node < before:
            stats.deduped += 1
            continue
        member = root.node
        ok, phase = sim.phase_of(member, node)
        if not ok:
            stats.failed += 1
            continue
        stats.verified += 1
        if cn.add_choice(node, member, phase):
            count[node] = count.get(node, 0) + 1


class _IncrementalSim:
    """Node-value cache over fixed input patterns, extended on demand."""

    def __init__(self, net: LogicNetwork):
        self.net = net
        npi = len(net.pis)
        if npi <= EXACT_PI_LIMIT:
            self.width = 1 << max(npi, 1)
            pats = exhaustive_patterns(net.pis)
        else:
            self.width = SIM_WIDTH
            rng = random.Random(0x5EED)
            pats = {n: rng.getrandbits(self.width) for n in net.pis}
        self.mask = (1 << self.width) - 1
        self.vals: list = [None] * len(net._nodes)
        self.vals[0] = 0
        for n in net.pis:
            self.vals[n] = pats[n] & self.mask

    def value(self, n: int) -> int:
        while len(self.vals) < len(self.net._nodes):
            self.vals.append(None)  # type: ignore[arg-type]
        v = self.vals[n]
        if v is not None:
            return v
        stack = [n]
        while stack:
            m = stack[-1]
            if self.vals[m] is not None:
                stack.pop()
                continue
            pend = [f.node for f in self.net.fanins(m)
                    if self.vals[f.node] is None]
            if pend:
                stack.extend(pend)
                continue
            ins = [self.vals[f.node] ^ (self.mask if f.neg else 0)
                   for f in self.net.fanins(m)]
            kind = self.net.kind(m)
            if kind == nw.AND2:
                self.vals[m] = ins[0] & ins[1]
            elif kind == nw.XOR2:
                self.vals[m] = ins[0] ^ ins[1]
            elif kind == nw.MAJ3:
                self.vals[m] = ((ins[0] & ins[1]) | (ins[0] & ins[2])
                                | (ins[1] & ins[2]))
            else:
                self.vals[m] = 0
            stack.pop()
        return self.vals[n]

    def phase_of(self, member: int, rep: int):
        vm, vr = self.value(member), self.value(rep)
        if vm == vr:
            return True, False
        if vm == vr ^ self.mask:
            return True, True
        return False, False


# -- top-level MCH construction ---------------------------------------


def build_mch(net: LogicNetwork, lib: StrategyLibrary,
              params: MchParams = MchParams(),
              mix_target: Optional[str] = None) -> ChoiceNetwork:
    """Embed, classify paths, enumerate cuts, and install choices."""
    netp = net.one_to_one_map(mix_target or net.tag)
    critical = netp.critical_path_nodes(params.r)
    cutsets = enumerate_cuts(netp, params.k, params.l)
    return multi_strategy_choices(netp, critical, cutsets, params.K, lib,
                                  params)


def add_external_choices(cn: ChoiceNetwork,
                         other: LogicNetwork) -> ChoiceNetwork:
    """Merge a functionally equivalent network as additional choices."""
    base = cn.base
    if len(base.pis) != len(other.pis) or \
            len(base.outputs) != len(other.outputs):
        raise ChoiceError("PI/PO interface mismatch")
    verdict = cec(base, other)
    if verdict.status == "not-equivalent":
        raise ChoiceError(f"networks differ on input {verdict.counterexample}")

    outs = base.insert(other, [Signal(bp) for bp in base.pis])
    sim = _IncrementalSim(base)
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
        ok, phase = sim.phase_of(member, rep)
        if not ok:
            cn.stats.failed += 1
            continue
        cn.stats.verified += 1
        cn.add_choice(rep, member, phase)
    cn.stats.classes = len(cn.first_choice)
    cn.stats.members = len(cn.repr_of)
    return cn
