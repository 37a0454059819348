"""The demos run as their docstrings say: `python3 demos/<name>.py` from
any directory, with nothing on PYTHONPATH."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["choice_mapping", "rewrite_escape",
                                  "structural_bias"])
def test_demo_runs_without_pythonpath(name, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_benchmark_report_puts_the_package_on_its_path():
    # a full report maps every bundled circuit three times; run under
    # another name the file does everything but main()
    saved = sys.path[:]
    try:
        got = runpy.run_path(str(DEMOS / "benchmark_report.py"),
                             run_name="benchmark_report_demo")
        added = [os.path.realpath(p) for p in sys.path[:len(sys.path)
                                                       - len(saved)]]
    finally:
        sys.path[:] = saved
    assert added == [str(DEMOS.parent / "src")]
    assert got["run_suite"].__module__ == "mch.bench"
