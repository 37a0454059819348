"""Fingerprint every output of a benchmark workload, to show that a change
leaves the program's results byte-identical.

    python3 tools/fingerprint.py --workload suite --seed 1 --json base.json
    python3 tools/fingerprint.py --workload suite --seed 1 --against base.json
    python3 tools/fingerprint.py --workload all --seed 1 --json base.json

Run the first command with `--root` naming a checkout of the old code (or
from inside one) and the second in the new one.  The workloads and the
digest are those of `perfbench/flows.py` (imported, never changed), one
pass each: the `suite` netlists, the `iterate` networks and the `ladder`
`.mch` files.  One sha256 is printed
per operation (design and flow); with `--against`, the run exits 1 when
any operation's digest differs from, or is missing in, the given file,
and 2 when that file records another workload or seed than the run's.
`--design` restricts the run to the operations of one design.
`--workload all` runs the three workloads in one call and names each
operation `workload:design/flow`, in one file.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suite", "iterate", "ladder")


def fingerprints(workload: str, seed: int, design=None,
                 root: Path = ROOT) -> dict:
    """{"design/flow": sha256} over one pass of the workload's operations,
    running the program and the benchmark of the checkout at root."""
    for path in (root / "perfbench", root / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import flows

    libs = flows.load_libraries()
    with tempfile.TemporaryDirectory() as work:
        wl = flows.WORKLOADS[workload](root, Path(work), seed, libs)
        return {f"{op.design}/{op.flow}": flows.fingerprint(op.run(0))
                for op in sorted(wl.ops, key=lambda op: (op.design, op.flow))
                if design is None or op.design == design}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--design", help="only this design's operations")
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout to run (default: the one holding this "
                    "file)")
    ap.add_argument("--json", help="write the digests to this file")
    ap.add_argument("--against", help="compare with a file from --json")
    args = ap.parse_args(argv)

    base = None
    if args.against:
        saved = json.loads(Path(args.against).read_text())
        for field in ("workload", "seed"):
            if saved.get(field, getattr(args, field)) != getattr(args, field):
                print(f"{args.against} has {field} {saved[field]}, this run "
                      f"{getattr(args, field)}", file=sys.stderr)
                return 2
        base = saved["fingerprints"]
    got = {}
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        prefix = f"{name}:" if args.workload == "all" else ""
        for op, digest in fingerprints(name, args.seed, args.design,
                                       args.root.resolve()).items():
            got[prefix + op] = digest
    if not got:
        print(f"no operations for design {args.design}", file=sys.stderr)
        return 2
    bad = 0
    width = max(map(len, got))
    for op, digest in got.items():
        mark = ""
        if base is not None and base.get(op) != digest:
            mark = "  MISMATCH" if op in base else "  MISSING"
            bad += 1
        print(f"{op:{width}s} {digest}{mark}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "fingerprints": got}, indent=1) + "\n")
    if base is not None:
        print(f"{len(got) - bad} of {len(got)} operations identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
