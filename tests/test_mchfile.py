import random
from pathlib import Path

import pytest

from mch import network as nw
from mch.aiger import read_aiger
from mch.bench import PRESETS
from mch.choices import ChoiceNetwork, MchParams, build_mch
from mch.mapper import MapParams, map_lut
from mch.mchfile import MchFileError, read_mch, write_mch, write_net
from mch.strategies import default_library
from mch.gen import random_network
from mch.verify import cec

from fixtures import parity8, two_class_cycle

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def test_plain_network_round_trip(tmp_path):
    net = parity8()
    path = tmp_path / "p.mch"
    write_net(net, path)
    back = read_mch(path)
    assert not back.repr_of
    assert cec(net, back.base).status == "equivalent"


def test_choice_network_round_trip(tmp_path):
    lib = default_library()
    rng = random.Random(81)
    for i in range(5):
        net = random_network(rng.randint(5, 8), rng.randint(15, 35),
                             rng.randint(0, 10**9))
        cn = build_mch(net, lib, MchParams())
        path = tmp_path / f"c{i}.mch"
        write_mch(cn, path)
        back = read_mch(path)
        back.check_invariants()
        assert len(back.repr_of) == len(cn.repr_of)
        a = map_lut(cn, MapParams(k=4)).stats
        b = map_lut(back, MapParams(k=4)).stats
        assert a == b


def test_preserves_phases(tmp_path):
    lib = default_library()
    net = random_network(6, 30, 7)
    cn = build_mch(net, lib, MchParams())
    path = tmp_path / "ph.mch"
    write_mch(cn, path)
    back = read_mch(path)
    assert sorted(cn.phase.values()) == sorted(back.phase.values())


def test_rejects_bad_header(tmp_path):
    path = tmp_path / "b.mch"
    path.write_text("mch v2 aig\npis 1\noutput 2\n")
    with pytest.raises(MchFileError):
        read_mch(path)


def test_rejects_unknown_gate_kind(tmp_path):
    path = tmp_path / "g.mch"
    path.write_text("mch v1 aig\npis 2\ngate nand3 2 4\noutput 6\n")
    with pytest.raises(MchFileError):
        read_mch(path)


def test_rejects_dangling_literal(tmp_path):
    path = tmp_path / "d.mch"
    path.write_text("mch v1 aig\npis 2\ngate and2 2 12\noutput 6\n")
    with pytest.raises(MchFileError):
        read_mch(path)


# 2 PIs (nodes 1, 2), 3 = AND(1, 2), 4 = AND(1, ~2): a negative field
# must not index node_of from its end
@pytest.mark.parametrize("body, where, what", [
    ("pis 2\ngate and2 2 4\noutput -1\n", 4, "negative literal -1"),
    ("pis 2\ngate and2 -2 4\noutput 6\n", 3, "negative literal -2"),
    ("pis 2\ngate and2 2 4\ngate and2 2 5\noutput 6\nclass 3 -1:0\n", 6,
     "negative class member -1"),
    ("pis 2\ngate and2 2 4\noutput 6\nclass -3 3:0\n", 5,
     "negative class representative -3"),
    ("pis\n", 2, "missing input count"),
    ("pis 2\ngate and2 2 4\noutput\n", 4, "missing literal"),
    ("pis 2.5\n", 2, "bad input count '2.5'"),
    ("pis -3\noutput 0\n", 2, "negative input count -3"),
    ("pis 2\ngate and2 2 4\noutput 6\nclass 3 9:0\n", 5,
     "node 9 not yet defined"),
    ("pis 2\ngate and2 2 4\noutput 6\nclass 3 4:x\n", 5,
     "malformed class member '4:x'"),
    ("pis 2\ngate\n", 3, "unknown gate kind None"),
    ("pis 2\ngate and2 2 4\ngate and2 2 5\ngate and2 6 8\noutput 10\n"
     "class 3 4:0\nclass 4 5:0\n", 8, "representative 4 is itself a choice"),
], ids=["output-1", "gate-2", "member-1", "repr-3", "pis-missing",
        "output-missing", "pis-float", "pis-negative", "member-undefined",
        "member-phase", "gate-no-kind", "member-as-repr"])
def test_rejects_malformed_fields_with_their_line(tmp_path, body, where,
                                                  what):
    path = tmp_path / "m.mch"
    path.write_text("mch v1 aig\n" + body)
    with pytest.raises(MchFileError) as exc:
        read_mch(path)
    assert str(exc.value) == f"line {where}: {what}"


# XAG, 2 PIs (nodes 1, 2): 3 = XOR(1, 2), 4 = AND(1, ~2), 5 = AND(~1, 2),
# 6 = AND(~4, ~5), the XNOR, and 7 = AND(1, 2); 3 is a choice of 6 in
# phase 1
_XAG = ("mch v1 xag\npis 2\ngate xor2 2 4\ngate and2 2 5\ngate and2 3 4\n"
        "gate and2 9 11\ngate and2 2 4\noutput 12\n")


@pytest.mark.parametrize("classes, where, what", [
    ("class 6 6:0\n", 9, "class member 6 is its representative"),
    ("class 6 3:1 3:1\n", 9, "class member 3 is already in a class"),
    ("class 6 3:1\nclass 7 3:0\n", 10,
     "class member 3 is already in a class"),
    ("class 6 3:1\nclass 7 6:0\n", 10, "class member 6 is a representative"),
    ("class 6 3:1\nclass 7\n", 10, "class 7 lists no members"),
], ids=["member-is-repr", "member-twice", "member-in-two-classes",
        "member-is-a-repr", "no-members"])
def test_rejects_a_class_member_that_cannot_join(tmp_path, classes, where,
                                                 what):
    path = tmp_path / "c.mch"
    path.write_text(_XAG + "class 6 3:1\n")
    assert read_mch(path).classes == {6: [3]}
    path.write_text(_XAG + classes)
    with pytest.raises(MchFileError) as exc:
        read_mch(path)
    assert str(exc.value) == f"line {where}: {what}"


def test_rejects_a_class_whose_member_has_another_function(tmp_path):
    path = tmp_path / "wrong.mch"
    path.write_text("mch v1 aig\npis 2\ngate and2 2 4\ngate and2 2 5\n"
                    "output 6\nclass 3 4:0\n")
    with pytest.raises(MchFileError, match="line 6: choice 4 not "
                       "equivalent to representative 3"):
        read_mch(path)


def test_a_member_over_its_representative_fails_at_its_class_line(
        tmp_path):
    # 3 = AND(a, b), 4 = AND(~a, ~b), 5 = AND(3, OR(a, b)) computes 3
    path = tmp_path / "loop.mch"
    path.write_text("mch v1 aig\npis 2\ngate and2 2 4\ngate and2 3 5\n"
                    "gate and2 6 9\noutput 6\nclass 3 5:0\n")
    with pytest.raises(MchFileError) as exc:
        read_mch(path)
    assert str(exc.value) == "line 7: choice 5 is on a dependency cycle"


def test_a_cycle_through_two_classes_fails_at_a_member_class_line(tmp_path):
    cn = two_class_cycle()
    path = tmp_path / "loop.mch"
    write_mch(cn, path)
    lines = path.read_text().split("\n")
    with pytest.raises(MchFileError) as exc:
        read_mch(path)
    where, _, what = str(exc.value).partition(": ")
    member = int(what.split()[1])
    assert what == f"choice {member} is on a dependency cycle"
    # the node ids of this file are the arena's: the line is the member's
    cls = lines[int(where.removeprefix("line ")) - 1].split()
    assert cls[:2] == ["class", str(cn.repr_of[member])]
    assert str(member) in [item.split(":")[0] for item in cls[2:]]


def _write_mch_by_queries(cn, path):
    """The writer as it read the network through gates(), fanins() and
    kind(), node by node."""
    net = cn.base
    lines = [f"mch v1 {net.tag}", f"pis {len(net.pis)}"]
    id_of = {0: 0}
    for i, n in enumerate(net.pis):
        id_of[n] = i + 1
    nxt = len(net.pis) + 1
    for g in net.gates():
        id_of[g] = nxt
        nxt += 1
        lits = " ".join(str(id_of[f.node] * 2 + (1 if f.neg else 0))
                        for f in net.fanins(g))
        lines.append(f"gate {net.kind(g)} {lits}")
    for s in net.outputs:
        lines.append(f"output {id_of[s.node] * 2 + (1 if s.neg else 0)}")
    for r in cn.class_reprs():
        ms = " ".join(f"{id_of[m]}:{1 if cn.phase[m] else 0}"
                      for m in cn.members(r))
        lines.append(f"class {id_of[r]} {ms}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_the_writer_writes_what_node_by_node_queries_did(tmp_path):
    lib = default_library()
    for path in sorted(BENCH.glob("*.aag")):
        for preset in ("area", "delay"):
            mix, r, _ = PRESETS[preset]
            cn = build_mch(read_aiger(path), lib, MchParams(r=r),
                           mix_target=mix)
            got, want = tmp_path / "got.mch", tmp_path / "want.mch"
            write_mch(cn, got)
            _write_mch_by_queries(cn, want)
            assert got.read_bytes() == want.read_bytes(), (path, preset)
            back = read_mch(got)
            assert (back.classes, back.phase) == (cn.classes, cn.phase)
