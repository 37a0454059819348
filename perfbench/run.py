"""Layered benchmark for mch: one command, three workloads, one oracle.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the program from `src/`.
It repeats passes over the workload's operations until they have taken
`--seconds` (at least one pass), then checks every output with its own
oracle and prints a report, ending with one JSON line.  `--trace 0` reports
the end-to-end metrics, with times scaled to a reference host speed;
`--trace 1` alternates plain and traced passes and reports per-layer metrics
and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import ladder
import oracle
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# at least this many set-up samples; one is also taken before every pass,
# so they spread over the run instead of sharing one moment of machine load
SETUP_RUNS = 5
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mch.mapper, mch.strategies
mch.strategies.default_library()
mch.mapper.default_cell_library()
print(time.perf_counter() - t0)
"""


# The host's speed drifts: the same pass has taken from 4.2 s to 7.3 s in
# runs minutes apart on a shared 2-vCPU VM, and every timing of a run moves
# together.  So a fixed job of the benchmark's own code, which never calls
# the program, is timed before every operation, and the end-to-end times are
# multiplied by host_speed(); they read as seconds on a host where the job
# takes REF_CAL_S.  The job's time swings about twice as much (in log terms)
# as the program's when the host slows: over 27 runs of the three workloads
# a log-slope of 0.5 to 0.6 fitted best, and scaling by the square root cut
# the spread of wall_s across runs from 17-19% to 4-10%.
REF_CAL_S = 0.006


def host_speed(cal: list) -> float:
    """Factor taking a run's times to the reference host speed."""
    return math.sqrt(REF_CAL_S / statistics.median(cal))


def calibration_sample() -> float:
    """Seconds to generate and parse a fixed 1500-gate AIG.  The collector
    is off, so the size of the program's heap cannot slow the job."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        oracle.Aig(ladder.random_aig(1500, 0))
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Failure:
    """An operation that raised instead of returning an output."""

    def __init__(self, message: str):
        self.message = message


def setup_sample() -> float:
    """Seconds for a fresh interpreter to import mch and load both default
    libraries."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def run_pass(ops, pass_no: int, tracer=None, cal=None) -> tuple:
    """Run every operation once; returns (seconds per operation, outputs).

    With a list `cal`, appends a calibration sample before each operation.
    """
    times, outs = [], []
    for op in ops:
        if cal is not None:
            cal.append(calibration_sample())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outs.append(op.run(pass_no))
            else:
                with tracer.span("bench.op"):
                    outs.append(op.run(pass_no))
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            outs.append(Failure(f"{type(exc).__name__}: {exc}"))
        times.append(time.perf_counter() - t0)
    return times, outs


def pass_seconds(passes: list) -> float:
    """Wall time of one pass: the sum over operations of each operation's
    median time across passes.  A burst of machine load (or idle) that
    speeds or slows a stretch of one pass then moves no operation's median,
    where it would move the median of whole-pass times taken from only a
    few passes."""
    return sum(statistics.median(ts) for ts in zip(*passes))


def verify(flows, ops, results) -> tuple:
    """Check every output; returns (failed count, first-pass QoR per op).

    Identical outputs share one verdict.  A later pass whose QoR differs
    from the first pass's counts as failed: QoR must be deterministic.
    """
    verdicts: dict = {}
    qor: dict = {}
    failed = 0
    for outs in results:
        for op, out in zip(ops, outs):
            where = f"{op.design}/{op.flow}"
            if isinstance(out, Failure):
                failed += 1
                print(f"FAIL {where}: raised {out.message}")
                continue
            try:
                fp = flows.fingerprint(out)
                if fp not in verdicts:
                    verdicts[fp] = (True, op.check(out))
                ok, val = verdicts[fp]
            except oracle.OracleError as exc:
                ok, val = False, str(exc)
            except Exception as exc:  # malformed output: a failure too
                ok, val = False, f"{type(exc).__name__}: {exc}"
            key = (op.design, op.flow)
            if not ok:
                failed += 1
                print(f"FAIL {where}: {val}")
            elif key not in qor:
                qor[key] = val
            elif qor[key] != val:
                failed += 1
                print(f"FAIL {where}: QoR {val} differs from {qor[key]}")
    return failed, qor


def measure(flows, wl, seconds: float, tracer=None) -> tuple:
    """Run passes until `seconds` of them have been timed.

    Without a tracer, takes a set-up sample before every pass and a
    calibration sample before every operation.  With one, alternates plain
    and traced passes, plain first.  Returns (plain op times per pass,
    traced op times per pass, outputs per pass, set-up samples,
    calibration samples).
    """
    plain, traced, results, setup, cal = [], [], [], [], []
    timed = 0.0
    while timed < seconds or not plain or (tracer and not traced):
        if tracer is None or len(plain) <= len(traced):
            if tracer is None:
                setup.append(setup_sample())
            times, outs = run_pass(wl.ops, len(results),
                                   cal=cal if tracer is None else None)
            plain.append(times)
        else:
            flows.install(tracer)
            try:
                with tracer.span("bench.pass"):
                    times, outs = run_pass(wl.ops, len(results), tracer)
            finally:
                tracer.unwrap()
            traced.append(times)
        timed += sum(times)
        results.append(outs)
    while tracer is None and len(setup) < SETUP_RUNS:
        setup.append(setup_sample())
    return plain, traced, results, setup, cal


def print_layers(tracer, traced_passes: int, pass_t: float) -> None:
    """Print each span's self time and its share of the traced passes'
    total time `pass_t`."""
    self_t, _, calls = tracer.times()
    print("span self times per traced pass (share of the traced pass):")
    for name, t in sorted(self_t.items(), key=lambda kv: -kv[1]):
        if name != "strategies.db_load":
            print(f"  {name:22s} {t / traced_passes:9.4f} s "
                  f"{100 * t / pass_t:5.1f}%  {calls[name]} calls")
    groups = {
        "network.* + choices.build": sum(
            t for n, t in self_t.items()
            if n.startswith("network.") or n == "choices.build"),
        "mapper.*": sum(t for n, t in self_t.items()
                        if n.startswith("mapper.")),
    }
    for name, t in groups.items():
        print(f"  group {name:26s} {100 * t / pass_t:5.1f}%")
    if tracer.absent:
        print("absent (not traced): " + ", ".join(tracer.absent))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("suite", "ladder", "iterate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mch" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flows
    if not Path(flows.mch.__file__).resolve().is_relative_to(SRC):
        print("perfbench: mch was not imported from src/", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        tracer = spans.Tracer()
        if args.trace:
            flows.install(tracer)
            try:
                libs = flows.load_libraries()
            finally:
                tracer.unwrap()
        else:
            libs = flows.load_libraries()
        try:
            wl = flows.WORKLOADS[args.workload](ROOT, work, args.seed, libs)
        except FileNotFoundError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2

        plain, traced, results, setup, cal = measure(
            flows, wl, args.seconds, tracer if args.trace else None)
        # peak RSS of the program's calls, before the oracle allocates
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        failed, qor = verify(flows, wl.ops, results)
        attempted = sum(len(outs) for outs in results)
        summary = wl.summary(qor) if qor else {}
        print(f"workload {args.workload} seed {args.seed}: {len(wl.ops)} "
              f"operations x {len(results)} passes")
        print("plain pass seconds: " +
              " ".join(f"{sum(t):.3f}" for t in plain) +
              f" (by operation medians: {pass_seconds(plain):.3f})")
        for key, val in summary.items():
            print(f"  {key:14s} {val:.6g}")
        print(f"  ops_failed_frac {failed / attempted:.6g}")

        if args.trace:
            traced_wall = pass_seconds(traced)
            metrics = flows.layer_metrics(tracer, len(traced))
            metrics["trace.wall_s"] = traced_wall
            metrics["trace.overhead_s"] = traced_wall - pass_seconds(plain)
            metrics["trace.absent"] = len(tracer.absent)
            print("traced pass seconds: " +
                  " ".join(f"{sum(t):.3f}" for t in traced))
            print(f"tracing overhead: {metrics['trace.overhead_s']:.3f} s "
                  f"per pass ({len(tracer.spans)} spans)")
            print_layers(tracer, len(traced), sum(map(sum, traced)))
            dump = OUT / f"spans-{args.workload}-{args.seed}.json"
            dump.write_text(json.dumps({"absent": tracer.absent,
                                        "spans": tracer.spans}))
            print(f"spans written to {dump.relative_to(ROOT)}")
        else:
            speed = host_speed(cal)
            print("setup seconds: " + " ".join(f"{t:.4f}" for t in setup))
            print(f"host speed factor {speed:.4f} (calibration median "
                  f"{statistics.median(cal) * 1000:.3f} ms, {len(cal)} "
                  f"samples); unscaled wall_s {pass_seconds(plain):.4f}, "
                  f"setup_s {statistics.median(setup):.4f}")
            metrics = {
                "setup_s": statistics.median(setup) * speed,
                "wall_s": pass_seconds(plain) * speed,
                "peak_rss_mb": peak_rss_mb,
                "qor_area": summary.get("qor_area", 0.0),
                "qor_delay": summary.get("qor_delay", 0.0),
            }
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": flows.UNITS[k]}
                        for k, v in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
