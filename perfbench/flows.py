"""The benchmark's workloads and the program layers its trace measures.

Every call into the program goes through a module attribute looked up at
call time (`mch.mapper.map_lut(...)`), so the tracer's wrappers see it, and
only through the stable public API: read_aiger, one_to_one_map,
critical_path_nodes, enumerate_cuts, multi_strategy_choices / build_mch,
map_lut, map_cells, graph_map, optimize_iterate, cec, write_mch,
default_library and default_cell_library.  The presets are stated here
rather than taken from the program, so moving the program's own preset
tables changes nothing.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path
from typing import Callable, NamedTuple

import mch.aiger
import mch.choices
import mch.graphmap
import mch.mapper
import mch.mchfile
import mch.network
import mch.strategies

import ladder
import oracle

K = 6
# (representation mix, critical-path ratio r, mapping mode)
AREA_PRESET = (mch.network.XMG, 0.8, mch.mapper.AREA)
DELAY_PRESET = (mch.network.XAG, 0.5, mch.mapper.DELAY)


class Op(NamedTuple):
    design: str
    flow: str
    run: Callable        # run(pass_no) -> output, calling only the program
    check: Callable      # check(output) -> (area, delay); raises OracleError


class Workload(NamedTuple):
    ops: list
    # summary(qor) -> {"qor_area", "qor_delay", ...}; qor maps
    # (design, flow) to the (area, delay) of the first pass
    summary: Callable


def geomean(vals) -> float:
    """Geometric mean; 0 when there is nothing to average (every operation
    of a flow failed, which the run already reports as incorrect)."""
    vals = list(vals)
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


class Libraries(NamedTuple):
    strategies: object
    cells: object
    cell_by_name: dict


def load_libraries() -> Libraries:
    slib = mch.strategies.default_library()
    cl = mch.mapper.default_cell_library()
    return Libraries(slib, cl, {c.name: c for c in cl.cells})


class _Design:
    """A bundled AIGER file and, once asked for, its reference outputs."""

    def __init__(self, path: Path):
        self.path = path
        self.name = path.stem
        self.aig = oracle.Aig(path.read_text())
        self._ref = None

    @property
    def ref(self) -> list:
        if self._ref is None:
            self._ref = oracle.reference(self.aig)
        return self._ref


def _bundled(root: Path) -> list:
    paths = sorted((root / "benchmarks").glob("*.aag"))
    if not paths:
        raise FileNotFoundError(f"no benchmarks/*.aag under {root}")
    return [_Design(p) for p in paths]


def _build(libs: Libraries, net, preset):
    mix, r, _ = preset
    return mch.choices.build_mch(net, libs.strategies,
                                 mch.choices.MchParams(r=r), mix_target=mix)


# -- suite -------------------------------------------------------------------


SUITE_FLOWS = ("lut-base", "lut-area", "lut-delay", "cell-area")


def _suite_run(libs: Libraries, d: _Design, flow: str) -> Callable:
    MapParams = mch.mapper.MapParams

    def run(_pass_no: int):
        net = mch.aiger.read_aiger(str(d.path))
        if flow == "lut-base":
            cn = mch.choices.ChoiceNetwork(net.one_to_one_map(net.tag))
            return mch.mapper.map_lut(cn, MapParams(k=K,
                                                    mode=AREA_PRESET[2]))
        preset = DELAY_PRESET if flow == "lut-delay" else AREA_PRESET
        cn = _build(libs, net, preset)
        if flow == "cell-area":
            return mch.mapper.map_cells(
                cn, libs.cells, MapParams(k=K, mode=preset[2],
                                          target=mch.mapper.CELL, rounds=3))
        return mch.mapper.map_lut(cn, MapParams(k=K, mode=preset[2]))
    return run


def _suite_check(libs: Libraries, d: _Design, flow: str) -> Callable:
    cells = libs.cell_by_name if flow.startswith("cell") else None

    def check(m):
        oracle.check_netlist(m, d.ref, len(d.aig.inputs),
                             len(d.aig.outputs), cells)
        if cells is not None:
            return oracle.cell_qor(m, cells)
        return oracle.lut_qor(m)
    return check


def _suite_summary(qor: dict) -> dict:
    def gm(flow, i):
        return geomean(v[i] for (_, f), v in qor.items() if f == flow)
    return {
        "qor_area": geomean(a for a, _ in qor.values()),
        "qor_delay": geomean(d for _, d in qor.values()),
        "lut_base_area": gm("lut-base", 0),
        "lut_area": gm("lut-area", 0),
        "lut_delay": gm("lut-delay", 1),
        "cell_area": gm("cell-area", 0),
        "cell_delay": gm("cell-area", 1),
    }


def suite(root: Path, work: Path, seed: int, libs: Libraries) -> Workload:
    ops = [Op(d.name, f, _suite_run(libs, d, f), _suite_check(libs, d, f))
           for d in _bundled(root) for f in SUITE_FLOWS]
    random.Random(seed).shuffle(ops)
    return Workload(ops, _suite_summary)


# -- iterate -----------------------------------------------------------------


ITERATE_FLOWS = {"aig-area": (mch.network.AIG, mch.mapper.AREA),
                 "xmg-delay": (mch.network.XMG, mch.mapper.DELAY)}
MAX_ITERS = 4
KINDS = {mch.network.CONST0: "const", mch.network.PI: "pi",
         mch.network.AND2: "and", mch.network.XOR2: "xor",
         mch.network.MAJ3: "maj"}


def _iterate_run(libs: Libraries, d: _Design, flow: str) -> Callable:
    target, mode = ITERATE_FLOWS[flow]

    def run(_pass_no: int):
        net = mch.aiger.read_aiger(str(d.path))
        out, _report = mch.graphmap.optimize_iterate(
            net, target, params=mch.mapper.MapParams(mode=mode),
            max_iters=MAX_ITERS, lib=libs.strategies)
        return out
    return run


def _iterate_check(d: _Design) -> Callable:
    def check(net):
        oracle.check_network(net, d.ref, len(d.aig.inputs),
                             len(d.aig.outputs), KINDS)
        return oracle.network_qor(net)
    return check


def _iterate_summary(qor: dict) -> dict:
    nodes = geomean(a for a, _ in qor.values())
    levels = geomean(d for _, d in qor.values())
    return {"qor_area": nodes, "qor_delay": levels,
            "gm_nodes": nodes, "gm_levels": levels}


def iterate(root: Path, work: Path, seed: int, libs: Libraries) -> Workload:
    ops = [Op(d.name, f, _iterate_run(libs, d, f), _iterate_check(d))
           for d in _bundled(root) for f in ITERATE_FLOWS]
    random.Random(seed).shuffle(ops)
    return Workload(ops, _iterate_summary)


# -- ladder ------------------------------------------------------------------


def _ladder_op(libs: Libraries, work: Path, size: int, seed: int) -> Op:
    text = ladder.random_aig(size, seed)
    src = work / f"ladder-{size}.aag"
    src.write_text(text)
    aig = oracle.Aig(text)
    ref = []

    def run(pass_no: int):
        net = mch.aiger.read_aiger(str(src))
        cn = _build(libs, net, AREA_PRESET)
        out = work / f"ladder-{size}-pass{pass_no}.mch"
        mch.mchfile.write_mch(cn, str(out))
        return out

    def check(path: Path):
        text = path.read_text()
        if not ref:
            ref.append(oracle.reference(aig))
        choice_net = oracle.MchText(text)
        oracle.check_choices(choice_net, aig, ref[0])
        return oracle.choice_qor(choice_net, len(aig.ands))

    return Op(f"ladder{size}", "build", run, check)


def _ladder_summary(qor: dict) -> dict:
    return {"qor_area": geomean(a for a, _ in qor.values()),
            "qor_delay": geomean(d for _, d in qor.values())}


def ladder_workload(root: Path, work: Path, seed: int,
                    libs: Libraries) -> Workload:
    ops = [_ladder_op(libs, work, n, seed) for n in ladder.SIZES]
    random.Random(seed).shuffle(ops)
    return Workload(ops, _ladder_summary)


WORKLOADS = {"suite": suite, "ladder": ladder_workload, "iterate": iterate}


def fingerprint(output) -> str:
    """Digest of a program output, so identical outputs of later passes
    reuse the oracle's verdict on the first."""
    h = hashlib.sha256()
    if isinstance(output, Path):
        h.update(output.read_bytes())
    elif hasattr(output, "instances"):
        h.update(repr((output.n_pis, output.outputs,
                       [tuple(i) for i in output.instances])).encode())
    else:
        h.update(repr((output.pis, output.outputs,
                       [(output.kind(n), output.fanins(n))
                        for n in range(len(output))])).encode())
    return h.hexdigest()


# -- traced layers -----------------------------------------------------------

# (call site, span name).  Each call site is where the program looks the
# name up, so wrapping it times the calls the program makes.
TRACE_TARGETS = [
    ("mch.aiger:read_aiger", "aiger.read"),
    ("mch.network:LogicNetwork.one_to_one_map", "network.embed"),
    ("mch.network:LogicNetwork.critical_path_nodes", "network.critical"),
    ("mch.network:LogicNetwork.mffc", "network.mffc"),
    ("mch.choices:enumerate_cuts", "cuts.enum"),
    ("mch.cuts:cut_truth", "tt.cut_truth"),
    ("mch.choices:cut_truth", "tt.cut_truth"),
    ("mch.choices:level_oriented_candidates", "strategies.level"),
    ("mch.graphmap:level_oriented_candidates", "strategies.level"),
    ("mch.choices:area_oriented_candidates", "strategies.area"),
    ("mch.strategies:load_db", "strategies.db_load"),
    ("mch.choices:build_mch", "choices.build_mch"),
    ("mch.choices:multi_strategy_choices", "choices.build"),
    ("mch.mapper:map_lut", "mapper.lut"),
    ("mch.graphmap:map_lut", "mapper.lut"),
    ("mch.mapper:map_cells", "mapper.cell"),
    ("mch.mapper:cover_check", "mapper.cover_check"),
    ("mch.graphmap:optimize_iterate", "graphmap.optimize"),
    ("mch.graphmap:build_mch", "graphmap.build"),
    ("mch.graphmap:graph_map", "graphmap.map"),
    ("mch.graphmap:cec", "verify.cec"),
    ("mch.choices:cec", "verify.cec"),
    ("mch.mchfile:write_mch", "mchfile.write"),
]


def _count_cuts(tracer, _state, cutsets) -> None:
    if isinstance(cutsets, dict):
        tracer.counts["cuts.count"] += sum(len(v) for v in cutsets.values())


def _gates(net) -> int:
    count = getattr(net, "num_gates", None)
    return count() if callable(count) else 0


def _gates_before(args):
    return _gates(args[0]) if args else 0


def _count_choices(tracer, embedded, cn) -> None:
    # read what exists, so a changed result type reads 0, not a crash
    stats = getattr(cn, "stats", None)
    for key in ("generated", "deduped", "verified", "failed"):
        tracer.counts[f"choices.{key}"] += getattr(stats, key, 0)
    tracer.counts["choices.embedded_gates"] += embedded
    tracer.counts["choices.arena_gates"] += _gates(getattr(cn, "base", None))


HOOKS = {
    "cuts.enum": (None, _count_cuts),
    "choices.build": (_gates_before, _count_choices),
}


def install(tracer) -> None:
    for target, name in TRACE_TARGETS:
        before, after = HOOKS.get(name, (None, None))
        tracer.wrap(target, name, before, after)


# Per-layer metrics: (metric, span name, what it reads).
SELF_TIMES = [
    ("network.mffc_s", "network.mffc"),
    ("network.embed_s", "network.embed"),
    ("network.critical_s", "network.critical"),
    ("cuts.enum_s", "cuts.enum"),
    ("strategies.level_s", "strategies.level"),
    ("strategies.area_s", "strategies.area"),
    ("tt.cut_truth_s", "tt.cut_truth"),
    ("choices.build_s", "choices.build"),
    ("mapper.lut_s", "mapper.lut"),
    ("mapper.cell_s", "mapper.cell"),
    ("mapper.cover_check_s", "mapper.cover_check"),
    ("graphmap.map_s", "graphmap.map"),
    ("verify.cec_s", "verify.cec"),
    ("aiger.read_s", "aiger.read"),
    ("mchfile.write_s", "mchfile.write"),
]
CALLS = [
    ("network.mffc_calls", "network.mffc"),
    ("strategies.level_calls", "strategies.level"),
    ("strategies.area_calls", "strategies.area"),
    ("graphmap.iters", "graphmap.map"),
]


END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "qor_area": "qor", "qor_delay": "qor"}
PER_LAYER = [m for m, _ in SELF_TIMES] + [m for m, _ in CALLS] + [
    "graphmap.build_s", "strategies.db_load_s", "cuts.count",
    "choices.generated", "choices.deduped", "choices.verified",
    "choices.failed", "choices.useful_ratio", "choices.arena_growth",
    "trace.wall_s", "trace.overhead_s", "trace.absent"]
UNITS = dict(END_TO_END)
UNITS.update({m: "s" if m.endswith("_s") else
              "ratio" if m.endswith(("_ratio", "_growth")) else "count"
              for m in PER_LAYER})


def layer_metrics(tracer, passes: int) -> dict:
    """Per-pass layer metrics from the spans of `passes` traced passes,
    plus the one-off library load."""
    self_t, total, calls = tracer.times()
    c = tracer.counts
    out = {m: self_t.get(s, 0.0) / passes for m, s in SELF_TIMES}
    out.update({m: calls.get(s, 0) / passes for m, s in CALLS})
    # construction inside the optimize loop, children included
    out["graphmap.build_s"] = total.get("graphmap.build", 0.0) / passes
    out["strategies.db_load_s"] = total.get("strategies.db_load", 0.0)
    out["cuts.count"] = c["cuts.count"] / passes
    for key in ("generated", "deduped", "verified", "failed"):
        out[f"choices.{key}"] = c[f"choices.{key}"] / passes
    out["choices.useful_ratio"] = \
        c["choices.verified"] / c["choices.generated"] \
        if c["choices.generated"] else 0.0
    out["choices.arena_growth"] = \
        c["choices.arena_gates"] / c["choices.embedded_gates"] \
        if c["choices.embedded_gates"] else 0.0
    return out
