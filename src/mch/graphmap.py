"""Graph mapping: rebuild a choice network in a single representation.

graph_map runs the cut-based cover at k=4 and replaces every chosen cut
with the best structure template for its function, drawn from the NPN4
database restricted to the target representation.  optimize_iterate wraps
this in the embed / add-choices / remap loop and accepts an iteration only
when it improves the mode's cost lexicographically.
"""

from dataclasses import dataclass, field
from typing import Optional

from . import network as nw
from .network import LogicNetwork, Signal
from .choices import ChoiceNetwork, MchParams, build_mch
from .mapper import MapParams, MapError, map_lut, DELAY, LUT
from .strategies import (StrategyLibrary, default_library,
                         level_oriented_candidates)
from .verify import cec, NOT_EQUIVALENT

FIXPOINT = "fixpoint"
MAX_ITERS = "max-iters"

# default embedding mix per optimization target
DEFAULT_MIX = {nw.AIG: nw.AIG, nw.XAG: nw.XAG,
               nw.MIG: nw.MIG, nw.XMG: nw.XMG}


class GraphTargetLibrary:
    """Structure templates usable when rebuilding into one representation."""

    def __init__(self, target: str, lib: Optional[StrategyLibrary] = None):
        if target not in nw.ALLOWED_KINDS:
            raise MapError(f"unknown representation tag {target!r}")
        self.target = target
        self.lib = lib if lib is not None else default_library()

    def best(self, tt, mode: str):
        """Pick the template candidate for tt under the given mode; the
        query keeps the templates whose kinds the target allows."""
        cands = level_oriented_candidates(self.lib, tt, host_tag=self.target)
        if not cands:
            raise MapError(
                f"no {self.target} template for function 0x{tt.bits:x}")
        if mode == DELAY:
            return min(cands, key=lambda c: (c.depth, c.size))
        return min(cands, key=lambda c: (c.size, c.depth))


def graph_map(cn: ChoiceNetwork, tl: GraphTargetLibrary,
              params: MapParams = MapParams()) -> LogicNetwork:
    """Cover the choice network with 4-cuts and rebuild in tl.target."""
    p = params._replace(k=4, target=LUT)
    m = map_lut(cn, p)

    out = LogicNetwork(tl.target)
    sigs: dict[int, Signal] = {}
    for i in range(m.n_pis):
        sigs[i] = out.add_pi()
    for inst in m.instances:
        small, sup = inst.tt.shrink_to_support()
        if not sup:
            s = out.const1 if small.is_const1() else out.const0
        elif len(sup) == 1:
            leaf = sigs[inst.ins[sup[0]]]
            s = leaf if small.value_at(1) else ~leaf
        else:
            cand = tl.best(inst.tt, p.mode)
            s = out.insert(cand.net,
                           [sigs[inst.ins[j]] for j in cand.support])[0]
        sigs[inst.out] = s
    for oid, negd in m.outputs:
        out.add_po(sigs[oid].with_neg(negd))
    return out


def network_metrics(net: LogicNetwork) -> tuple:
    """(gate count, depth) of the live part of a network."""
    c = net.compact()
    lm = c.compute_levels()
    level = max((lm.level[s.node] for s in c.outputs), default=0)
    return c.num_gates(), level


@dataclass
class OptStep:
    iteration: int
    nodes: int
    level: int
    accepted: bool


@dataclass
class OptLoopReport:
    steps: list = field(default_factory=list)
    termination: str = FIXPOINT

    def csv_rows(self) -> list:
        rows = ["iteration,nodes,level,accepted"]
        for s in self.steps:
            rows.append(f"{s.iteration},{s.nodes},{s.level},"
                        f"{1 if s.accepted else 0}")
        return rows


def _cost(mode: str, nodes: int, level: int) -> tuple:
    if mode == DELAY:
        return (level, nodes)
    return (nodes, level)


def optimize_iterate(net: LogicNetwork, target: str,
                     mix: Optional[str] = None,
                     params: MapParams = MapParams(),
                     mch_params: MchParams = MchParams(),
                     max_iters: int = 10,
                     lib: Optional[StrategyLibrary] = None):
    """Iterated choice-based remapping into the target representation.

    Returns (optimized network, OptLoopReport).  The current best network
    is replaced only when equivalence holds and the mode's lexicographic
    cost strictly improves; otherwise the loop stops at a fixpoint.
    """
    if mix is None:
        mix = DEFAULT_MIX[target]
    tl = GraphTargetLibrary(target, lib)
    slib = lib if lib is not None else default_library()

    cur = net.compact()
    cur_cost = _cost(params.mode, *network_metrics(cur))
    report = OptLoopReport()
    for it in range(1, max_iters + 1):
        used = {cur.kind(g) for g in cur.gates()}
        mix_eff = mix if used <= nw.ALLOWED_KINDS[mix] else target
        cn = build_mch(cur, slib, mch_params, mix_target=mix_eff)
        nxt = graph_map(cn, tl, params).compact()
        if cec(cur, nxt).status == NOT_EQUIVALENT:
            raise MapError(f"iteration {it} broke equivalence")
        nodes, level = network_metrics(nxt)
        cost = _cost(params.mode, nodes, level)
        accepted = cost < cur_cost
        report.steps.append(OptStep(it, nodes, level, accepted))
        if not accepted:
            report.termination = FIXPOINT
            return cur, report
        cur, cur_cost = nxt, cost
    report.termination = MAX_ITERS
    return cur, report
