"""Tests of the benchmark's own parts: oracle, generator, tracer, metric
names.  Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import flows  # noqa: E402
import ladder  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from mch import network as nw  # noqa: E402
from mch.aiger import read_aiger  # noqa: E402
from mch.choices import ChoiceNetwork, MchParams, build_mch  # noqa: E402
from mch.mapper import AREA, MapParams, map_lut  # noqa: E402
from mch.mchfile import write_mch  # noqa: E402
from mch.network import exhaustive_patterns  # noqa: E402
from mch.strategies import default_library  # noqa: E402
from mch.tt import TruthTable  # noqa: E402

DESIGN = ROOT / "benchmarks" / "int2float.aag"


def _design():
    aig = oracle.Aig(DESIGN.read_text())
    return aig, oracle.reference(aig), read_aiger(str(DESIGN))


def test_oracle_rejects_each_flipped_lut_bit_that_changes_the_function():
    aig, ref, net = _design()
    m = map_lut(ChoiceNetwork(net.one_to_one_map(net.tag)),
                MapParams(k=4, mode=AREA))
    n_pis, n_pos = len(aig.inputs), len(aig.outputs)
    oracle.check_netlist(m, ref, n_pis, n_pos)
    words = [exhaustive_patterns(net.pis)[p] for p in net.pis]
    width = 1 << n_pis
    want = m.simulate(words, width)
    out_id = m.outputs[0][0]
    at = next(i for i, inst in enumerate(m.instances) if inst.out == out_id)
    inst = m.instances[at]
    changed = 0
    for bit in range(1 << inst.tt.var_count):
        tt = TruthTable.create(inst.tt.bits ^ (1 << bit), inst.tt.var_count)
        m.instances[at] = inst._replace(tt=tt)
        differs = m.simulate(words, width) != want
        changed += differs
        if differs:
            with pytest.raises(oracle.OracleError):
                oracle.check_netlist(m, ref, n_pis, n_pos)
        else:
            oracle.check_netlist(m, ref, n_pis, n_pos)
    m.instances[at] = inst
    assert changed > 0


def test_oracle_rejects_a_choice_member_with_the_wrong_phase(tmp_path):
    aig, ref, net = _design()
    cn = build_mch(net, default_library(), MchParams(r=0.8),
                   mix_target=nw.XMG)
    path = tmp_path / "c.mch"
    write_mch(cn, str(path))
    text = path.read_text()
    oracle.check_choices(oracle.MchText(text), aig, ref)
    line = next(ln for ln in text.split("\n") if ln.startswith("class "))
    member, phase = line.split()[2].split(":")
    bad_line = line.replace(f" {member}:{phase}",
                            f" {member}:{1 - int(phase)}", 1)
    bad = text.replace(line + "\n", bad_line + "\n", 1)
    with pytest.raises(oracle.OracleError, match="choice"):
        oracle.check_choices(oracle.MchText(bad), aig, ref)


def test_oracle_rejects_a_wrong_library_cell():
    libs = flows.load_libraries()
    from mch.mapper import Instance, MappedNetlist
    and2 = libs.cell_by_name["and2"]
    m = MappedNetlist("cell", 2, [Instance(2, "and2", and2.area,
                                           and2.tt, (0, 1))], [(2, False)])
    aig = oracle.Aig("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")
    ref = oracle.reference(aig)
    oracle.check_netlist(m, ref, 2, 1, libs.cell_by_name)
    m.instances[0] = m.instances[0]._replace(cell="or2")
    with pytest.raises(oracle.OracleError, match="library cell"):
        oracle.check_netlist(m, ref, 2, 1, libs.cell_by_name)


def test_input_chunks_cover_every_pattern_once():
    seen = set()
    for words, mask in oracle.input_chunks(14):
        for j in range(mask.bit_length()):
            seen.add(sum(((w >> j) & 1) << i for i, w in enumerate(words)))
    assert seen == set(range(1 << 14))


def test_generator_is_deterministic_per_seed():
    assert ladder.random_aig(1000, 7) == ladder.random_aig(1000, 7)
    assert ladder.random_aig(1000, 7) != ladder.random_aig(1000, 8)


@pytest.mark.parametrize("size", ladder.SIZES)
@pytest.mark.parametrize("seed", [1, 2])
def test_ladder_networks_have_16_pis_and_no_dead_gates(tmp_path, size, seed):
    path = tmp_path / "l.aag"
    path.write_text(ladder.random_aig(size, seed))
    net = read_aiger(str(path))
    assert len(net.pis) == 16
    assert net.num_gates() == size
    live = net.reachable()
    assert all(g in live for g in net.gates())


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(flows.END_TO_END) + list(flows.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert [m["name"] for m in spec["end_to_end"]] == list(flows.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(flows.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == flows.UNITS[m["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(flows.WORKLOADS)


def test_tracer_reports_missing_names_and_self_time():
    t = spans.Tracer()
    t.wrap("mch.graphmap:no_such_function", "x")
    t.wrap("mch.network:LogicNetwork.no_such_method", "x")
    t.wrap("no_such_module:f", "x")
    assert len(t.absent) == 3
    t.wrap("json:dumps", "json.dumps")
    try:
        with t.span("outer"):
            json.dumps([1])
    finally:
        t.unwrap()
    assert json.dumps.__name__ == "dumps" and not hasattr(json.dumps,
                                                          "__wrapped__")
    self_t, total, calls = t.times()
    assert calls == {"outer": 1, "json.dumps": 1}
    assert self_t["outer"] == pytest.approx(
        total["outer"] - total["json.dumps"])
