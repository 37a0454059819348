import sys

import pytest

from mch import network as nw
from mch.network import LogicNetwork
from mch.tt import TruthTable, Cube, maj_tt, isop, evaluate_cubes, \
    dsd_decompose, cut_truth, InvalidCut, NON_DECOMPOSABLE


def test_var_tables():
    a = TruthTable.var(0, 2)
    b = TruthTable.var(1, 2)
    assert (a & b).bits & 0xF == 0b1000
    assert (a | b).bits & 0xF == 0b1110
    assert (a ^ b).bits & 0xF == 0b0110


def test_const_and_invert():
    assert TruthTable.const(False, 3).is_const0()
    assert TruthTable.const(True, 3).is_const1()
    a = TruthTable.var(0, 3)
    assert (~~a).bits == a.bits


def test_create_pads_to_word():
    t = TruthTable.create(0b0110, 2)
    # the 4-bit pattern must repeat across the 64-bit word
    assert t.bits == 0x6666666666666666


def test_cofactor_and_support():
    a, b, c = (TruthTable.var(i, 3) for i in range(3))
    f = (a & b) | c
    assert f.cofactor(2, 1).is_const1()
    assert f.cofactor(2, 0).bits == (a & b).bits
    assert f.support() == [0, 1, 2]
    g = a & ~a
    assert g.support() == []


def test_shrink_to_support():
    b = TruthTable.var(1, 3)
    small, sup = b.shrink_to_support()
    assert sup == [1]
    assert small.var_count == 1
    assert small.value_at(0) == 0 and small.value_at(1) == 1


def test_maj_tt():
    a, b, c = (TruthTable.var(i, 3) for i in range(3))
    m = maj_tt(a, b, c)
    for i in range(8):
        bits = sum((i >> v) & 1 for v in range(3))
        assert m.value_at(i) == (1 if bits >= 2 else 0)


def test_hex_round_trip():
    t = TruthTable.create(0xCA, 3)
    assert t.hex() == "0xca"
    assert TruthTable.from_hex("ca", 3).bits == t.bits


def test_isop_covers_function():
    for bits in (0x00, 0xFF, 0x16, 0x69, 0xE8, 0x3D):
        t = TruthTable.create(bits, 3)
        assert evaluate_cubes(isop(t), 3).bits == t.bits


def test_isop_exhaustive_3var():
    for bits in range(256):
        t = TruthTable.create(bits, 3)
        assert evaluate_cubes(isop(t), 3).bits == t.bits


def test_cube_evaluate():
    # cube "x0 and not x2"
    c = Cube(pos=0b001, neg=0b100)
    t = evaluate_cubes([c], 3)
    a, notc = TruthTable.var(0, 3), ~TruthTable.var(2, 3)
    assert t.bits == (a & notc).bits


def test_dsd_full_decomposition():
    a, b, c = (TruthTable.var(i, 3) for i in range(3))
    node = dsd_decompose((a & b) ^ c)
    assert node != NON_DECOMPOSABLE


def test_dsd_non_decomposable():
    # 2-out-of-4 exactly: prime function, no disjoint decomposition
    vs = [TruthTable.var(i, 4) for i in range(4)]
    bits = 0
    for m in range(16):
        if bin(m).count("1") == 2:
            bits |= 1 << m
    assert dsd_decompose(TruthTable.create(bits, 4)) == NON_DECOMPOSABLE


def test_cut_truth():
    net = LogicNetwork(nw.AIG)
    a, b, c = net.add_pi(), net.add_pi(), net.add_pi()
    g1 = net.add_and(a, b)
    g2 = net.add_and(g1, ~c)
    t = cut_truth(net, g2.node, [a.node, b.node, c.node])
    va, vb, vc = (TruthTable.var(i, 3) for i in range(3))
    assert t.bits == (va & vb & ~vc).bits


def test_cut_truth_rejects_non_cut():
    net = LogicNetwork(nw.AIG)
    a, b, c = net.add_pi(), net.add_pi(), net.add_pi()
    g = net.add_and(net.add_and(a, b), c)
    with pytest.raises(InvalidCut):
        cut_truth(net, g.node, [a.node, b.node])  # c unreachable


def test_cut_truth_deep_chain_keeps_recursion_limit():
    net = LogicNetwork(nw.AIG)
    a, b = net.add_pi(), net.add_pi()
    acc = net.add_and(a, b)
    for i in range(12000):
        acc = net.add_and(acc, a if i % 2 else b)
    limit = sys.getrecursionlimit()
    t = cut_truth(net, acc.node, [a.node, b.node])
    assert sys.getrecursionlimit() == limit
    va, vb = TruthTable.var(0, 2), TruthTable.var(1, 2)
    assert t == va & vb
