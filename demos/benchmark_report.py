"""Preset comparison over the bundled benchmark circuits.

Runs the three cell-mapping presets on every benchmark in benchmarks/
and prints the resulting CSV.  Expected shape: the delay preset gives
the smallest delays, the area preset the smallest areas, with the
balanced preset in between on both axes.

Run:  python3 demos/benchmark_report.py
"""

import sys
import os

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mch.bench import CSV_HEADER, run_suite

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


def main():
    paths = sorted(os.path.join(BENCH_DIR, f)
                   for f in os.listdir(BENCH_DIR) if f.endswith(".aag"))
    rows = run_suite(paths, ["cell-delay", "cell-balanced", "cell-area"])
    print(CSV_HEADER)
    for r in rows:
        print(r.csv())


if __name__ == "__main__":
    main()
