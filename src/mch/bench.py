"""Benchmark harness: run mapping flows over a suite of AIGER files.

A flow id is "<kind>-<preset>" where kind is one of lut, cell, gm-aig,
gm-xag, gm-mig, gm-xmg and preset is one of base, balanced, delay, area.
"base" maps the network without building choices; the other presets build
a choice network first (delay: XAG mix, r=0.5; area: XMG mix; balanced:
XMG mix, r=0.8) and map in the matching mode.

Cell presets are best-of-efforts: besides the choice-network run, each
preset also considers the three plain-network schedules and keeps the
result that is best under the preset's objective (delay-lexicographic
for delay and balanced, area-lexicographic for area).  Building choices
therefore never leaves a preset worse than mapping the network as-is.
"""

import math
import time
from typing import NamedTuple, Optional

from . import network as nw
from .choices import ChoiceNetwork, MchParams, build_mch
from .graphmap import graph_map, network_metrics
from .mapper import (AREA, BALANCED, CELL, DELAY, CellLibrary, MapParams,
                     cover_check, default_cell_library, map_cells, map_lut)
from .strategies import default_library
from .verify import EQUIVALENT, cec

CSV_HEADER = "benchmark,flow,area,delay,time_s,verified"

PRESETS = {
    "balanced": (nw.XMG, 0.8, BALANCED),
    "delay": (nw.XAG, 0.5, DELAY),
    "area": (nw.XMG, 0.8, AREA),
}


class BenchRow(NamedTuple):
    benchmark: str
    flow: str
    area: float
    delay: float
    time_s: float
    verified: str

    def csv(self) -> str:
        return (f"{self.benchmark},{self.flow},{self.area:g},"
                f"{self.delay:g},{self.time_s:.3f},{self.verified}")


def parse_flow(flow: str):
    kind, _, preset = flow.rpartition("-")
    if not kind:
        raise ValueError(f"bad flow id {flow!r}; expected <kind>-<preset>")
    if preset not in ("base",) + tuple(PRESETS):
        raise ValueError(f"unknown preset {preset!r} in flow {flow!r}")
    if kind not in ("lut", "cell", "gm-aig", "gm-xag", "gm-mig", "gm-xmg"):
        raise ValueError(f"unknown flow kind {kind!r}")
    return kind, preset


def cell_baseline_portfolio(net, cl, k: int = 6) -> list:
    """The three plain-network cell schedules, as (netlist, mode) pairs."""
    out = []
    for mode in (DELAY, BALANCED, AREA):
        cn = ChoiceNetwork(net.one_to_one_map(net.tag))
        out.append(map_cells(cn, cl, MapParams(k=k, mode=mode,
                                               target=CELL, rounds=3)))
    return out


def run_flow(net, flow: str, cell_lib: Optional[CellLibrary] = None,
             k: int = 6, baseline: Optional[list] = None):
    """Run one flow on one network.  Returns (area, delay, verified).

    For cell flows, `baseline` may carry a precomputed
    cell_baseline_portfolio(net, ...) result to share across presets.
    """
    kind, preset = parse_flow(flow)
    slib = default_library()
    if preset == "base":
        mode = BALANCED
        cn = ChoiceNetwork(net.one_to_one_map(net.tag))
    else:
        mix, r, mode = PRESETS[preset]
        cn = build_mch(net, slib, MchParams(r=r), mix_target=mix)

    if kind.startswith("gm-"):
        # graph-mapping flows report node count as area and depth as delay
        out = graph_map(cn, kind[3:], MapParams(mode=mode), slib)
        nodes, level = network_metrics(out)
        return float(nodes), float(level), cec(net, out).status
    src = cn.base
    if kind == "lut":
        pick = map_lut(cn, MapParams(k=k, mode=mode))
    else:
        cl = cell_lib if cell_lib is not None else default_cell_library()
        pick = map_cells(cn, cl, MapParams(k=k, mode=mode, target=CELL,
                                           rounds=3))
        if preset != "base":
            if baseline is None:
                baseline = cell_baseline_portfolio(net, cl, k)

            def objective(s):
                # round so accumulated float noise cannot flip a tie
                d, a = round(s["delay"], 6), round(s["area"], 6)
                return (a, d) if mode == AREA else (d, a)
            for b in baseline:
                if objective(b.stats) < objective(pick.stats):
                    pick, src = b, net
    return (pick.stats["area"], pick.stats["delay"],
            cover_check(pick, src).status)


def geomean(vals: list) -> float:
    if not vals:
        return 0.0
    return math.exp(sum(math.log(max(v, 1e-9)) for v in vals) / len(vals))


def run_suite(paths: list, flows: list, cell_lib=None, k: int = 6):
    """Run every flow on every benchmark file; failures become rows too."""
    from .aiger import read_aiger

    rows = []
    for path in paths:
        name = str(path).rsplit("/", 1)[-1]
        for ext in (".aag", ".aig"):
            if name.endswith(ext):
                name = name[:-len(ext)]
        try:
            net = read_aiger(path)
        except Exception as exc:
            for flow in flows:
                rows.append(BenchRow(name, flow, 0.0, 0.0, 0.0,
                                     f"error:{type(exc).__name__}"))
            continue
        baseline = None
        if any(parse_flow(f) == ("cell", pr) for f in flows
               for pr in PRESETS):
            try:
                cl = cell_lib if cell_lib is not None \
                    else default_cell_library()
                baseline = cell_baseline_portfolio(net, cl, k)
            except Exception:
                baseline = None
        for flow in flows:
            t0 = time.perf_counter()
            try:
                area, delay, status = run_flow(net, flow, cell_lib, k,
                                               baseline=baseline)
            except Exception as exc:
                rows.append(BenchRow(name, flow, 0.0, 0.0,
                                     time.perf_counter() - t0,
                                     f"error:{type(exc).__name__}"))
                continue
            rows.append(BenchRow(name, flow, area, delay,
                                 time.perf_counter() - t0, status))
    for flow in flows:
        good = [r for r in rows if r.flow == flow
                and not r.verified.startswith("error")]
        if not good:
            continue
        verdict = EQUIVALENT if all(r.verified == EQUIVALENT
                                    for r in good) else "mixed"
        rows.append(BenchRow("geomean", flow,
                             geomean([r.area for r in good]),
                             geomean([r.delay for r in good]),
                             sum(r.time_s for r in good), verdict))
    return rows


def write_csv(rows: list, path) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(r.csv() + "\n")
