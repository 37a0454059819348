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


def _matches_pins(pins: dict, workload: str, design: str, tmp_path) -> int:
    saved = sys.path[:]
    try:
        main = runpy.run_path(str(TOOL), run_name="fingerprint_tool")["main"]
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"fingerprints": pins}))
        return main(["--workload", workload, "--seed", "1",
                     "--design", design, "--against", str(base)])
    finally:
        sys.path[:] = saved


# The ladder's .mch file lists every arena gate in order, so a strash
# change that renumbers the arena shows here first.
LADDER1000 = {
    "ladder1000/build":
        "d7fb7f5a5ada30847d0796b1fa7963194ae6c2ca2bd998bc297153e75b731e77",
}


def test_fingerprint_of_the_1000_gate_ladder_is_pinned(tmp_path):
    assert _matches_pins(LADDER1000, "ladder", "ladder1000", tmp_path) == 0


LADDER2000 = {
    "ladder2000/build":
        "b6fbe99224c1b1caae9e65fb55e27815ac3c8d48787826215fc23bcebd95884d",
}


def test_fingerprint_of_the_2000_gate_ladder_is_pinned(tmp_path):
    assert _matches_pins(LADDER2000, "ladder", "ladder2000", tmp_path) == 0


# router's two iterate operations: k=4 LUT mapping feeding rebuilding,
# recorded before cut tables were composed at store time
ROUTER_ITERATE = {
    "router/aig-area":
        "96e6323601281746ac8dc7461506181c62589cfa1bba525dff23a44d73b74a77",
    "router/xmg-delay":
        "ff804ccf024082d2024c2e2df13678c5e79e809035227a0526eafb377de45e44",
}


def test_fingerprint_of_routers_iterate_operations_is_pinned(tmp_path):
    assert _matches_pins(ROUTER_ITERATE, "iterate", "router", tmp_path) == 0


# dec's suite outputs; its cell mapping has the widest cell levels of the
# suite.  Recorded before the cell round matched a whole level at once.
DEC_SUITE = {
    "dec/cell-area":
        "141947de135425a28c1accda34de19366e650aad0a661f9bd42d150444f3665d",
    "dec/lut-area":
        "f7e007d09aedcbcec3407a1ea57ddbd80e3d42197719f2725d8714e98310b6d9",
    "dec/lut-base":
        "f7e007d09aedcbcec3407a1ea57ddbd80e3d42197719f2725d8714e98310b6d9",
    "dec/lut-delay":
        "f7e007d09aedcbcec3407a1ea57ddbd80e3d42197719f2725d8714e98310b6d9",
}


def test_fingerprint_of_decs_suite_operations_is_pinned(tmp_path):
    assert _matches_pins(DEC_SUITE, "suite", "dec", tmp_path) == 0


# priority's suite outputs.  Its mapping has the most one- to four-node
# dependency levels per second of any bundled design, where the cut
# kernel's fixed cost per level weighs most.  Recorded before the kernel's
# stored rows were kept in a sorted index.
PRIORITY_SUITE = {
    "priority/cell-area":
        "0f10b8cd2c41620632e7ae817c708641771722b4827ad746807555b2e53b8568",
    "priority/lut-area":
        "66c7b64f4f76a63f2209b76bfb629d77e36d8820fba945ed24b90511ab037aa5",
    "priority/lut-base":
        "82de759f8838d71a1cb57aa113c1814275e86926fd17dcf3c88581f574d1f24f",
    "priority/lut-delay":
        "4e58270c6b969fe594236b1120d546f4dafadec24da6ee72ad56521060f9cc1f",
}


def test_fingerprint_of_prioritys_suite_operations_is_pinned(tmp_path):
    assert _matches_pins(PRIORITY_SUITE, "suite", "priority", tmp_path) == 0


def test_all_workloads_run_in_one_call_under_prefixed_names(tmp_path):
    pins = {**{f"suite:{op}": d for op, d in ROUTER_SUITE.items()},
            **{f"iterate:{op}": d for op, d in ROUTER_ITERATE.items()}}
    assert _matches_pins(pins, "all", "router", tmp_path) == 0


def test_a_file_from_another_workload_or_seed_is_refused(tmp_path, capsys):
    saved = sys.path[:]
    try:
        main = runpy.run_path(str(TOOL), run_name="fingerprint_tool")["main"]
        base = tmp_path / "all.json"
        for workload, seed in (("all", 1), ("suite", 2)):
            base.write_text(json.dumps({"workload": workload, "seed": seed,
                                        "fingerprints": {}}))
            assert main(["--workload", "suite", "--seed", "1", "--design",
                         "router", "--against", str(base)]) == 2
    finally:
        sys.path[:] = saved
    err = capsys.readouterr().err.splitlines()
    assert err == [f"{base} has workload all, this run suite",
                   f"{base} has seed 2, this run 1"]
