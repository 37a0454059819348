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


def _check_target(target: str) -> None:
    if target not in nw.ALLOWED_KINDS:
        raise MapError(f"unknown representation tag {target!r}")


def _template(lib: StrategyLibrary, target: str, tt, mode: str):
    """The template candidate for tt in target under the given mode; the
    query keeps the templates whose kinds the target allows."""
    cands = level_oriented_candidates(lib, tt, host_tag=target)
    if not cands:
        raise MapError(f"no {target} template for function 0x{tt.bits:x}")
    if mode == DELAY:
        return min(cands, key=lambda c: (c.depth, c.size))
    return min(cands, key=lambda c: (c.size, c.depth))


def graph_map(cn: ChoiceNetwork, target: str,
              params: MapParams = MapParams(),
              lib: Optional[StrategyLibrary] = None) -> LogicNetwork:
    """Cover the choice network with 4-cuts and rebuild it in the target
    representation from lib's templates (default: the bundled ones)."""
    _check_target(target)
    lib = lib if lib is not None else default_library()
    p = params._replace(k=4, target=LUT)
    m = map_lut(cn, p)

    out = LogicNetwork(target)
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
            cand = _template(lib, target, inst.tt, p.mode)
            s = Signal(*out.run(cand.walk,
                                [sigs[inst.ins[j]] for j in cand.support])[0])
        sigs[inst.out] = s
    for oid, negd in m.outputs:
        out.add_po(sigs[oid].with_neg(negd))
    return out


def network_metrics(net: LogicNetwork) -> tuple:
    """(gate count, depth) of the live part of a network."""
    return _metrics(net.compact())


def _metrics(net: LogicNetwork) -> tuple:
    """(gate count, depth) of a network without dead logic (compacted)."""
    return net.num_gates(), net.compute_levels().network_level


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
    mix = mix or target
    _check_target(target)
    _check_target(mix)
    slib = lib if lib is not None else default_library()

    cur = net.compact()
    cur_cost = _cost(params.mode, *_metrics(cur))
    report = OptLoopReport()
    for it in range(1, max_iters + 1):
        used = {cur.kind(g) for g in cur.gates()}
        mix_eff = mix if used <= nw.ALLOWED_KINDS[mix] else target
        cn = build_mch(cur, slib, mch_params, mix_target=mix_eff)
        nxt = graph_map(cn, target, params, slib).compact()
        if cec(cur, nxt).status == NOT_EQUIVALENT:
            raise MapError(f"iteration {it} broke equivalence")
        nodes, level = _metrics(nxt)
        cost = _cost(params.mode, nodes, level)
        accepted = cost < cur_cost
        report.steps.append(OptStep(it, nodes, level, accepted))
        if not accepted:
            report.termination = FIXPOINT
            return cur, report
        cur, cur_cost = nxt, cost
    report.termination = MAX_ITERS
    return cur, report
