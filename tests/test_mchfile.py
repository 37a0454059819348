import random

import pytest

from mch import network as nw
from mch.choices import ChoiceNetwork, MchParams, build_mch
from mch.mapper import MapParams, map_lut
from mch.mchfile import MchFileError, read_mch, write_mch, write_net
from mch.strategies import default_library
from mch.gen import random_network
from mch.verify import cec

from fixtures import parity8


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


def test_rejects_a_class_whose_member_has_another_function(tmp_path):
    path = tmp_path / "wrong.mch"
    path.write_text("mch v1 aig\npis 2\ngate and2 2 4\ngate and2 2 5\n"
                    "output 6\nclass 3 4:0\n")
    with pytest.raises(MchFileError, match="line 6: choice 4 not "
                       "equivalent to representative 3"):
        read_mch(path)
