"""Command-line driver: stats, convert, mch, map-lut, map-cell, graphmap,
cec, and bench subcommands over AIGER and .mch files."""

import argparse
import sys
from pathlib import Path

from . import network as nw
from .aiger import AigerError, read_aiger, write_aiger
from .bench import CSV_HEADER, PRESETS, run_suite, write_csv
from .blif import write_blif, write_verilog_structural
from .choices import ChoiceNetwork, MchParams, build_mch
from .graphmap import optimize_iterate
from .mapper import (AREA, BALANCED, CELL, DELAY, CellLibrary, MapError,
                     MapParams, cover_check, default_cell_library, map_cells,
                     map_lut)
from .mchfile import MchFileError, read_mch, write_mch, write_net
from .strategies import default_library
from .verify import EQUIVALENT, NOT_EQUIVALENT, InterfaceMismatch, cec

MODES = {"delay": DELAY, "area": AREA, "balanced": BALANCED}


class CliError(Exception):
    pass


def _load_cn(path: str) -> ChoiceNetwork:
    if path.endswith(".mch"):
        return read_mch(path)
    return ChoiceNetwork(read_aiger(path))


def _load_net(path: str):
    return _load_cn(path).base


def _write_network(net, path: str) -> None:
    if path.endswith((".aag", ".aig")):
        write_aiger(net, path)
    else:
        write_net(net, path)


def _verify_or_die(m, base, label: str) -> str:
    verdict = cover_check(m, base).status
    if verdict == NOT_EQUIVALENT:
        raise CliError(f"{label}: mapped netlist failed verification")
    return verdict


def cmd_stats(args) -> int:
    net = _load_net(args.input)
    print(f"pis {len(net.pis)}  pos {len(net.outputs)}  "
          f"nodes {net.num_gates()}  levels "
          f"{net.compute_levels().network_level}  tag {net.tag}")
    return 0


def cmd_convert(args) -> int:
    net = _load_net(args.input).one_to_one_map(args.to)
    _write_network(net, args.output)
    print(f"wrote {args.output} ({args.to}, {net.num_gates()} nodes)")
    return 0


def cmd_mch(args) -> int:
    net = _load_net(args.input)
    mix, r, _ = PRESETS[args.preset] if args.preset else (None, 0.8, None)
    if args.mix:
        mix = args.mix
    if args.r is not None:
        r = args.r
    p = MchParams(k=args.k, l=args.l, K=args.K, r=r)
    cn = build_mch(net, default_library(), p, mix_target=mix)
    write_mch(cn, args.output)
    s = cn.stats
    print(f"wrote {args.output}: {len(cn.class_reprs())} classes, "
          f"{len(cn.repr_of)} choice members ({s.generated} generated, "
          f"{s.deduped} deduped, {s.verified} verified, {s.failed} failed), "
          f"{cn.base.num_gates()} arena nodes")
    return 0


def cmd_map_lut(args) -> int:
    cn = _load_cn(args.input)
    mode = MODES[args.mode]
    m = map_lut(cn, MapParams(k=args.k, l=args.l, mode=mode))
    verdict = _verify_or_die(m, cn.base, "map-lut")
    if args.output:
        write_blif(m, args.output)
    print(f"luts {m.stats['area']:g}  delay {m.stats['delay']:g}  "
          f"edges {m.stats['edges']}  verified {verdict}")
    return 0


def cmd_map_cell(args) -> int:
    cn = _load_cn(args.input)
    cl = CellLibrary.load(args.lib) if args.lib else default_cell_library()
    mode = MODES[args.mode]
    m = map_cells(cn, cl, MapParams(k=args.k, l=args.l, mode=mode,
                                    target=CELL))
    verdict = _verify_or_die(m, cn.base, "map-cell")
    if args.output:
        write_verilog_structural(m, args.output)
    print(f"area {m.stats['area']:g}  delay {m.stats['delay']:g}  "
          f"cells {len(m.instances)}  verified {verdict}")
    return 0


def cmd_graphmap(args) -> int:
    net = _load_net(args.input)
    mode = MODES[args.mode]
    opt, report = optimize_iterate(net, args.target, mix=args.mix,
                                   params=MapParams(mode=mode),
                                   max_iters=args.iters)
    verdict = cec(net, opt).status
    if verdict == NOT_EQUIVALENT:
        raise CliError("graphmap: result not equivalent to input")
    if args.output:
        _write_network(opt, args.output)
    for row in report.csv_rows():
        print(row)
    print(f"termination {report.termination}  verified {verdict}")
    return 0


def cmd_cec(args) -> int:
    a, b = _load_net(args.a), _load_net(args.b)
    v = cec(a, b)
    if v.status == EQUIVALENT:
        print("EQUIVALENT")
        return 0
    if v.status == NOT_EQUIVALENT:
        print(f"NOT_EQUIVALENT counterexample={v.counterexample}")
        return 1
    print(f"UNKNOWN after {v.patterns} patterns (not a proof)")
    return 2


def cmd_bench(args) -> int:
    suite = sorted(str(p) for p in Path(args.suite).iterdir()
                   if p.suffix in (".aag", ".aig"))
    flows = [f.strip() for f in args.flows.split(",") if f.strip()]
    cl = CellLibrary.load(args.lib) if args.lib else None
    rows = run_suite(suite, flows, cell_lib=cl, k=args.k)
    write_csv(rows, args.csv)
    print(CSV_HEADER)
    for r in rows:
        print(r.csv())
    bad = [r for r in rows if r.verified.startswith("error")
           or r.verified == NOT_EQUIVALENT]
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mch",
        description="choice-network construction, technology mapping, and "
                    "graph-mapping optimization")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print network statistics")
    p.add_argument("input")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("convert", help="embed into another representation")
    p.add_argument("--to", required=True, choices=sorted(nw.ALLOWED_KINDS))
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("mch", help="build a choice network")
    p.add_argument("-k", type=int, default=4, help="cut size (default 4)")
    p.add_argument("-l", type=int, default=8, help="cuts kept per node")
    p.add_argument("-K", type=int, default=8,
                   help="MFFC leaf bound (default 8)")
    p.add_argument("-r", type=float, default=None,
                   help="critical-path level ratio")
    p.add_argument("--mix", choices=sorted(nw.ALLOWED_KINDS))
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_mch)

    p = sub.add_parser("map-lut", help="map to K-input LUTs")
    p.add_argument("-k", type=int, default=6)
    p.add_argument("-l", type=int, default=8)
    p.add_argument("--mode", choices=sorted(MODES), default="balanced")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_map_lut)

    p = sub.add_parser("map-cell", help="map to standard cells")
    p.add_argument("--lib", help="cell library file (default: bundled)")
    p.add_argument("-k", type=int, default=6)
    p.add_argument("-l", type=int, default=8)
    p.add_argument("--mode", choices=sorted(MODES), default="balanced")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_map_cell)

    p = sub.add_parser("graphmap", help="iterated remap into one "
                                        "representation")
    p.add_argument("--target", required=True,
                   choices=sorted(nw.ALLOWED_KINDS))
    p.add_argument("--mix", choices=sorted(nw.ALLOWED_KINDS))
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--mode", choices=sorted(MODES), default="area")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_graphmap)

    p = sub.add_parser("cec", help="combinational equivalence check")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_cec)

    p = sub.add_parser("bench", help="run mapping flows over a suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--flows", required=True,
                   help="comma-separated flow ids, e.g. lut-base,lut-delay")
    p.add_argument("--csv", required=True)
    p.add_argument("--lib")
    p.add_argument("-k", type=int, default=6)
    p.set_defaults(func=cmd_bench)
    return ap


def cli_run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, AigerError, MchFileError, nw.NetworkError,
            InterfaceMismatch, MapError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_run())


if __name__ == "__main__":
    main()
