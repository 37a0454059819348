"""Paired benchmark runs of two checkouts, to test a claimed gain.

    python3 tools/paired.py --parent ../base --workload ladder --pairs 10

Runs `perfbench/run.py --trace 0` of the parent checkout and of the change
checkout (default: the one holding this file) in turn, N pairs: both
sides of a pair get the same workload, seconds and seed, each pair a fresh
seed (`--seed`, then one more per pair), and the side that runs first is
swapped every pair, so a drift of the host's speed favours neither.  Only
the JSON line each run prints last is read.

For every end-to-end metric it prints each side's median and quartiles
and the number of pairs the change wins (is better in, by the direction
`BENCHMARK.json` gives; lower when it names none).  A gain claim holds
when the change wins at least 9 of 10 pairs (the same share of any
other count) and its median is better by more than the parent's
interquartile range.  Exits 1 when a run fails or reports an incorrect
output.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def parse_line(stdout: str) -> dict:
    """The run's result: the last line of its output, a JSON object with
    `correct` and `metrics` ({name: {"value": v, "unit": u}})."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError(f"not a result line: {lines[-1][:80]!r}")
    return result


def quartiles(vals: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, med, q3


class Row(NamedTuple):
    metric: str
    better: str          # "lower" or "higher"
    parent: tuple        # (q1, median, q3)
    change: tuple
    wins: int            # pairs in which the change is strictly better
    pairs: int

    @property
    def claim_holds(self) -> bool:
        """At least WIN_SHARE of the pairs won, and the medians apart, in
        the better direction, by more than the parent's quartile gap."""
        gap = self.parent[1] - self.change[1]
        if self.better == "higher":
            gap = -gap
        need = math.ceil(WIN_SHARE * self.pairs - 1e-9)
        return self.pairs > 0 and self.wins >= need and \
            gap > self.parent[2] - self.parent[0]


def summarize(runs: list, better: dict) -> list:
    """One Row per metric the runs of every pair report.  runs holds
    (parent result, change result) per pair, as `parse_line` gives them;
    better maps a metric to "lower" or "higher" (default lower)."""
    names = [m for m in runs[0][0]["metrics"]
             if all(m in side["metrics"] for pair in runs for side in pair)]
    rows = []
    for m in names:
        way = better.get(m, "lower")
        par = [p["metrics"][m]["value"] for p, _ in runs]
        chg = [c["metrics"][m]["value"] for _, c in runs]
        wins = sum(c > p if way == "higher" else c < p
                   for p, c in zip(par, chg))
        rows.append(Row(m, way, quartiles(par), quartiles(chg), wins,
                        len(runs)))
    return rows


def report(rows: list) -> str:
    out = [f"{'metric':12s} {'parent median [q1, q3]':>32s} "
           f"{'change median [q1, q3]':>32s}  wins   change  claim"]
    for r in rows:
        (p1, pm, p3), (c1, cm, c3) = r.parent, r.change
        delta = f"{100 * (cm - pm) / pm:+6.1f}%" if pm else "     - "
        out.append(f"{r.metric:12s} {pm:10.4f} [{p1:9.4f}, {p3:9.4f}] "
                   f"{cm:10.4f} [{c1:9.4f}, {c3:9.4f}] "
                   f"{r.wins:3d}/{r.pairs:<3d}{delta}  "
                   f"{'holds' if r.claim_holds else 'no'}")
    return "\n".join(out)


def directions(root: Path) -> dict:
    """Metric -> better direction, from the checkout's BENCHMARK.json."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m.get("better", "lower")
            for m in spec.get("end_to_end", [])}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=root, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{root} seed {seed} exited {done.returncode}: "
                           f"{done.stderr.strip()[-300:]}")
    try:
        return parse_line(done.stdout)
    except ValueError as exc:
        raise ValueError(f"{root} seed {seed}: {exc}") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the code before the change")
    ap.add_argument("--change", type=Path, default=ROOT,
                    help="checkout of the change (default: this one)")
    ap.add_argument("--workload", required=True,
                    choices=("suite", "ladder", "iterate"))
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000,
                    help="seed of the first pair; each pair takes the next")
    args = ap.parse_args(argv)

    sides = (args.parent.resolve(), args.change.resolve())
    runs, bad = [], 0
    for i in range(args.pairs):
        seed = args.seed + i
        got = {}
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            try:
                got[side] = run_once(sides[side], args.workload, seed,
                                     args.seconds)
            except (RuntimeError, ValueError) as exc:
                print(f"paired: {exc}", file=sys.stderr)
                return 1
            bad += not got[side].get("correct", False)
        runs.append((got[0], got[1]))
        wall = [got[s]["metrics"].get("wall_s", {}).get("value")
                for s in (0, 1)]
        print(f"pair {i + 1}/{args.pairs} seed {seed}: wall_s parent "
              f"{wall[0]} change {wall[1]}", flush=True)
    print(report(summarize(runs, directions(sides[1]))))
    if bad:
        print(f"{bad} runs reported incorrect outputs", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
