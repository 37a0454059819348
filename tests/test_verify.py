import pytest

from mch import network as nw
from mch.network import LogicNetwork
from mch.verify import EQUIVALENT, NOT_EQUIVALENT, UNKNOWN, \
    InterfaceMismatch, cec, check_counterexample

from mch.gen import and_tree

from fixtures import parity10, aig_xor


def test_equivalent_pair():
    v = cec(parity10(True), parity10(False))
    assert v.status == EQUIVALENT
    assert bool(v)


def test_not_equivalent_with_counterexample():
    a = LogicNetwork(nw.AIG)
    x, y = a.add_pi(), a.add_pi()
    a.add_po(a.add_and(x, y))
    b = LogicNetwork(nw.AIG)
    x, y = b.add_pi(), b.add_pi()
    b.add_po(~b.add_and(~x, ~y))     # OR, not AND
    v = cec(a, b)
    assert v.status == NOT_EQUIVALENT
    assert not bool(v)
    assert check_counterexample(a, b, v.counterexample)


def test_interface_mismatch():
    a = LogicNetwork(nw.AIG)
    a.add_pi()
    a.add_po(a.const0)
    b = LogicNetwork(nw.AIG)
    b.add_pi()
    b.add_pi()
    b.add_po(b.const0)
    with pytest.raises(InterfaceMismatch):
        cec(a, b)


def test_wide_equivalent_is_unknown_not_failed():
    # 20 PIs exceeds the exhaustive limit; equal nets stay unproven
    def wide():
        net = LogicNetwork(nw.AIG)
        xs = [net.add_pi() for _ in range(20)]
        acc = xs[0]
        for x in xs[1:]:
            acc = net.add_and(acc, x)
        net.add_po(acc)
        return net
    v = cec(wide(), wide())
    assert v.status == UNKNOWN


def test_wide_not_equivalent_found_by_sampling():
    def wide(broken):
        net = LogicNetwork(nw.AIG)
        xs = [net.add_pi() for _ in range(20)]
        acc = xs[0]
        for x in xs[1:]:
            acc = aig_xor(net, acc, x)
        net.add_po(~acc if broken else acc)
        return net
    v = cec(wide(False), wide(True))
    assert v.status == NOT_EQUIVALENT


def _wide_gate(op: str, n: int = 20) -> LogicNetwork:
    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(n)]
    net.add_po(and_tree(net, xs) if op == "and"
               else ~and_tree(net, [~x for x in xs]))
    return net


def _constant(value: int, n: int = 20) -> LogicNetwork:
    net = LogicNetwork(nw.AIG)
    for _ in range(n):
        net.add_pi()
    net.add_po(net.const1 if value else net.const0)
    return net


@pytest.mark.parametrize("op, value, corner", [("and", 0, 1), ("or", 1, 0)])
def test_wide_difference_on_a_corner_input_is_found(op, value, corner):
    # above the exhaustive limit the two networks differ only on the
    # all-1 (AND) or the all-0 (OR) input vector
    a, b = _wide_gate(op), _constant(value)
    v = cec(a, b)
    assert v.status == NOT_EQUIVALENT
    assert v.counterexample == [corner] * 20
    assert check_counterexample(a, b, v.counterexample)


def test_cross_representation():
    net = parity10(True)
    x = net.one_to_one_map(nw.XAG)
    assert cec(net, x).status == EQUIVALENT
