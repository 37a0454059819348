"""tools/fingerprint.py digests the benchmark's outputs and flags any
operation whose digest changed; run here on one small design."""

import json
import runpy
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"

# router's suite outputs, recorded before LUT tables were composed lazily
ROUTER_SUITE = {
    "router/cell-area":
        "79729df754f656c3f5210365734aa456495d149297451eb7f44dc82ec1754061",
    "router/lut-area":
        "6e3fcd2de3cafa4e41d9a4317637b87a23663f4364e8308b3367d30c607b8aa1",
    "router/lut-base":
        "6e3fcd2de3cafa4e41d9a4317637b87a23663f4364e8308b3367d30c607b8aa1",
    "router/lut-delay":
        "6e3fcd2de3cafa4e41d9a4317637b87a23663f4364e8308b3367d30c607b8aa1",
}


def test_fingerprint_flags_changed_and_missing_operations(tmp_path, capsys):
    saved = sys.path[:]
    try:
        main = runpy.run_path(str(TOOL), run_name="fingerprint_tool")["main"]
        args = ["--workload", "suite", "--seed", "1", "--design", "router"]
        base = tmp_path / "base.json"
        assert main(args + ["--json", str(base)]) == 0
        assert json.loads(base.read_text())["fingerprints"] == ROUTER_SUITE

        changed = dict(ROUTER_SUITE)
        changed["router/lut-area"] = "0" * 64
        del changed["router/cell-area"]
        base.write_text(json.dumps({"fingerprints": changed}))
        capsys.readouterr()
        assert main(args + ["--against", str(base)]) == 1
    finally:
        sys.path[:] = saved
    lines = capsys.readouterr().out.splitlines()
    marks = {ln.split()[0]: ln.split()[2:] for ln in lines[:-1]}
    assert marks == {"router/cell-area": ["MISSING"],
                     "router/lut-area": ["MISMATCH"],
                     "router/lut-base": [], "router/lut-delay": []}
    assert lines[-1] == "2 of 4 operations identical"


# The ladder's .mch file lists every arena gate in order, so a strash
# change that renumbers the arena shows here first.
LADDER1000 = {
    "ladder1000/build":
        "d7fb7f5a5ada30847d0796b1fa7963194ae6c2ca2bd998bc297153e75b731e77",
}


def test_fingerprint_of_the_1000_gate_ladder_is_pinned(tmp_path):
    saved = sys.path[:]
    try:
        main = runpy.run_path(str(TOOL), run_name="fingerprint_tool")["main"]
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"fingerprints": LADDER1000}))
        assert main(["--workload", "ladder", "--seed", "1",
                     "--design", "ladder1000", "--against", str(base)]) == 0
    finally:
        sys.path[:] = saved
