import random

import pytest

from mch import network as nw
from mch.aiger import AigerError, read_aiger, write_aiger
from mch.gen import random_network
from mch.verify import cec

from fixtures import parity8, adder3


def isomorphic(a, b):
    """Structural equality modulo node numbering."""
    if len(a.pis) != len(b.pis) or len(a.outputs) != len(b.outputs):
        return False
    amap = {0: 0}
    for pa, pb in zip(a.pis, b.pis):
        amap[pa] = pb
    for g in a.gates():
        fins = tuple((amap[f.node], f.neg) for f in a.fanins(g))
        hit = None
        for h in b.gates():
            if tuple((f.node, f.neg) for f in b.fanins(h)) == fins:
                hit = h
                break
        if hit is None:
            return False
        amap[g] = hit
    for sa, sb in zip(a.outputs, b.outputs):
        if (amap[sa.node], sa.neg) != (sb.node, sb.neg):
            return False
    return True


@pytest.mark.parametrize("ext", ["aag", "aig"])
def test_round_trip(tmp_path, ext):
    rng = random.Random(61)
    for i in range(20):
        net = random_network(rng.randint(3, 8), rng.randint(5, 40),
                             rng.randint(0, 10**9),
                             n_pos=rng.randint(1, 4))
        path = tmp_path / f"n{i}.{ext}"
        write_aiger(net, path)
        back = read_aiger(path)
        assert isomorphic(net, back)
        assert cec(net, back).status == "equivalent"


def test_ascii_and_binary_agree(tmp_path):
    net = adder3()
    write_aiger(net, tmp_path / "a.aag")
    write_aiger(net, tmp_path / "a.aig")
    a = read_aiger(tmp_path / "a.aag")
    b = read_aiger(tmp_path / "a.aig")
    assert isomorphic(a, b)


def test_constant_output(tmp_path):
    net = nw.LogicNetwork(nw.AIG)
    net.add_pi()
    net.add_po(net.const0)
    net.add_po(~net.const0)
    write_aiger(net, tmp_path / "c.aag")
    back = read_aiger(tmp_path / "c.aag")
    assert back.exhaustive_outputs() == net.exhaustive_outputs()


def test_rejects_latches(tmp_path):
    path = tmp_path / "l.aag"
    path.write_text("aag 3 1 1 1 1\n2\n4 2\n6\n6 4 2\n")
    with pytest.raises(AigerError):
        read_aiger(path)


def test_rejects_bad_header(tmp_path):
    path = tmp_path / "b.aag"
    path.write_text("aag 1 2 0 0 0\n2\n4\n")
    with pytest.raises(AigerError):
        read_aiger(path)


def test_rejects_undefined_literal(tmp_path):
    path = tmp_path / "u.aag"
    path.write_text("aag 2 1 0 1 1\n2\n4\n4 2 6\n")
    with pytest.raises(AigerError):
        read_aiger(path)


def test_rejects_xor_network(tmp_path):
    net = nw.LogicNetwork(nw.XAG)
    a, b = net.add_pi(), net.add_pi()
    net.add_po(net.add_xor(a, b))
    with pytest.raises(AigerError):
        write_aiger(net, tmp_path / "x.aag")


def test_error_reports_line(tmp_path):
    path = tmp_path / "e.aag"
    path.write_text("aag 2 1 0 1 1\n2\nnot-a-number\n4 2 3\n")
    with pytest.raises(AigerError) as exc:
        read_aiger(path)
    assert "line" in str(exc.value)


def test_truncated_ascii_and_section_names_its_line(tmp_path):
    path = tmp_path / "t.aag"
    path.write_text("aag 3 2 0 1 1\n2\n4\n6")
    with pytest.raises(AigerError, match=r"line 5: bad AND line"):
        read_aiger(path)


def test_ascii_and_lines_may_come_in_any_order(tmp_path):
    # AND 8 reads AND 6, defined on the line after it
    ordered, reordered = tmp_path / "o.aag", tmp_path / "r.aag"
    ordered.write_text("aag 4 2 0 1 2\n2\n4\n8\n6 2 4\n8 6 2\n")
    reordered.write_text("aag 4 2 0 1 2\n2\n4\n8\n8 6 2\n6 2 4\n")
    assert read_aiger(reordered).exhaustive_outputs() == \
        read_aiger(ordered).exhaustive_outputs()


def test_an_and_cycle_names_one_of_its_lines(tmp_path):
    path = tmp_path / "c.aag"
    path.write_text("aag 4 2 0 1 2\n2\n4\n8\n6 8 2\n8 6 4\n")
    with pytest.raises(AigerError, match=r"line [56]: .*depends on itself"):
        read_aiger(path)


def test_an_and_literal_past_the_header_bound_names_its_line(tmp_path):
    path = tmp_path / "b.aag"
    path.write_text("aag 2 1 0 1 1\n2\n6\n6 2 2\n")
    with pytest.raises(AigerError, match=r"line 4: invalid AND literal 6"):
        read_aiger(path)


def test_an_input_literal_past_the_header_bound_names_its_line(tmp_path):
    path = tmp_path / "i.aag"
    path.write_text("aag 1 1 0 1 0\n4\n2\n")
    with pytest.raises(AigerError, match=r"^line 2: invalid input literal 4$"):
        read_aiger(path)
