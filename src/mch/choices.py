"""Mixed structural choice construction.

Builds a choice network from a single input network: candidates generated
per node by level-oriented (critical path) or area-oriented (everything
else) synthesis strategies are installed alongside the original structure
and marked as choices of their representative node.  A candidate is a
small network over its cut or MFFC leaves, and a query returns its cached,
structurally distinct candidates.  Installing one runs the strash walk
compiled when the query built it (`Candidate.walk`) over the spec's leaves
(`LogicNetwork.run`); strash dedupes any gate the arena already has.
External choices (`add_external_choices`) are inserted over the arena's
PIs.

Every member is proven where it is installed.  A candidate's member is
kept only when its table over the spec's leaves (`cut_truth`) equals the
table of the cut or MFFC it was built from, or that table's complement;
the member's cone stops at those leaves, so this is exact at any PI
count.  External choices are kept only when `cec` proves the two networks
`equivalent`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .network import LogicNetwork, Signal, exhaustive_patterns
from .cuts import Cut, enumerate_cuts
from .strategies import (Candidate, StrategyLibrary,
                         area_oriented_candidates,
                         level_oriented_candidates)
from .tt import FULL, MAX_VARS, TruthTable, cut_truth
from .verify import EQUIVALENT, EXHAUSTIVE_PI_LIMIT, cec


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
    def __init__(self, message: str, member: Optional[int] = None):
        super().__init__(message)
        self.member = member  # the offending choice member, when there is one


# check_invariants simulates at most 2^_RUN_VARS patterns at a time, so a
# run holds 512 bytes per node however many PIs the network has
_RUN_VARS = 12
SIM_WIDTH = 256


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

    def check_invariants(self) -> None:
        """Raise ChoiceError, naming the member, unless every member sits
        in one class, outside its representative's fanout, and computes
        the representative's function in its phase.

        `build_mch` and `add_external_choices` prove each member when
        they install it; this check is for classes made any other way
        (`add_choice`, `read_mch`).  Up to EXHAUSTIVE_PI_LIMIT PIs it
        simulates every input pattern, so a pass is a proof.  Above it,
        it simulates SIM_WIDTH random patterns, which can only reject: a
        pass there proves nothing.
        """
        net = self.base
        seen: set[int] = set()
        for r in self.class_reprs():
            for m in self.members(r):
                if m in seen:
                    raise ChoiceError(f"node {m} appears in two classes", m)
                seen.add(m)
                if r in net.tfi([m]):
                    raise ChoiceError(
                        f"representative {r} in TFI of choice {m}", m)
        for width, pats in _input_runs(net.pis):
            vals = net.simulate(pats, width)
            mask = (1 << width) - 1
            for r in self.class_reprs():
                for m in self.members(r):
                    if vals[m] != vals[r] ^ (mask if self.phase[m] else 0):
                        raise ChoiceError(f"choice {m} not equivalent to "
                                          f"representative {r}", m)


def _input_runs(pis: list[int]):
    """(width, PI words) per simulation run of check_invariants: every
    input pattern up to EXHAUSTIVE_PI_LIMIT PIs, else SIM_WIDTH random
    ones."""
    npi = len(pis)
    if npi > EXHAUSTIVE_PI_LIMIT:
        rng = random.Random(99)
        yield SIM_WIDTH, {n: rng.getrandbits(SIM_WIDTH) for n in pis}
        return
    low = min(npi, _RUN_VARS)
    words = exhaustive_patterns(pis[:low])
    for high in range(1 << (npi - low)):
        # -1 is an all-ones word once simulate masks it
        yield 1 << low, {**words, **{
            n: -((high >> i) & 1) for i, n in enumerate(pis[low:])}}


# -- candidate generation (pure phase) --------------------------------


class _Spec(NamedTuple):
    node: int
    leaves: tuple
    tt: TruthTable       # the node's function over leaves
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
                    specs.append(_Spec(n, cut.leaves, cut.tt, cand))
        else:
            stats.other_nodes += 1
            cut_leaves = set()
            for cut in cutsets.get(n, []):
                if len(cut.leaves) < 2 or cut.tt is None:
                    continue
                cut_leaves.add(cut.leaves)
                for cand in area_oriented_candidates(lib, cut.tt, host):
                    specs.append(_Spec(n, cut.leaves, cut.tt, cand))
            cone = netp.mffc(n, K, fanouts)
            leaves = tuple(netp.mffc_leaves(cone))
            gates_in_cone = sum(1 for m in cone if netp.is_gate(m))
            # an MFFC over one of n's cuts has that cut's table, so its
            # specs would repeat the cut's exactly
            if 2 <= len(leaves) <= MAX_VARS and gates_in_cone >= 2 \
                    and leaves not in cut_leaves:
                tt = cut_truth(netp, n, leaves)
                for cand in area_oriented_candidates(lib, tt, host):
                    specs.append(_Spec(n, leaves, tt, cand))

    _install_specs(cn, specs, params)
    stats.classes = len(cn.classes)
    stats.members = len(cn.repr_of)
    return cn


def _install_specs(cn: ChoiceNetwork, specs: list[_Spec],
                   params: MchParams) -> None:
    """Run each candidate's precompiled walk over its spec's leaves and
    install the new member when its table over those leaves is the spec's
    table (phase 0) or its complement (phase 1); any other member counts
    as failed, and a root strash already held counts as deduped."""
    net = cn.base
    stats = cn.stats
    count: dict[int, int] = {}  # members installed per node
    for node, leaves, tt, cand in specs:
        if count.get(node, 0) >= params.max_members:
            continue
        stats.generated += 1
        before = len(net)
        member = net.run(cand.walk,
                         [(leaves[j], False) for j in cand.support])[0][0]
        if member < before:
            stats.deduped += 1
            continue
        got = cut_truth(net, member, leaves).bits
        if got != tt.bits and got != tt.bits ^ FULL:
            stats.failed += 1
            continue
        stats.verified += 1
        if cn.add_choice(node, member, got != tt.bits):
            count[node] = count.get(node, 0) + 1


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
