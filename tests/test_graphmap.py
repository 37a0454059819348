import random

from mch import network as nw
from mch.network import LogicNetwork
from mch.choices import ChoiceNetwork, MchParams, build_mch
from mch.mapper import MapParams, DELAY, AREA
from mch.graphmap import graph_map, network_metrics, \
    optimize_iterate, FIXPOINT
from mch.strategies import default_library
from mch.gen import random_network
from mch.verify import cec

from fixtures import aig_xor, parity8, ESCAPE_FIXTURES


def test_and_chain_rebalanced():
    # 4-input AND chain: depth 3 rebuilt as a depth-2 tree
    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(4)]
    acc = xs[0]
    for x in xs[1:]:
        acc = net.add_and(acc, x)
    net.add_po(acc)
    out = graph_map(ChoiceNetwork(net), nw.AIG, MapParams(mode=DELAY))
    nodes, level = network_metrics(out)
    assert (nodes, level) == (3, 2)
    assert cec(net, out).status == "equivalent"


def test_parity_into_xmg_collapses():
    # 4-var parity: 9 AIG gates become 3 XOR gates
    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(4)]
    acc = xs[0]
    for x in xs[1:]:
        acc = aig_xor(net, acc, x)
    net.add_po(acc)
    out = graph_map(ChoiceNetwork(net), nw.XMG, MapParams(mode=DELAY))
    nodes, level = network_metrics(out)
    assert nodes == 3 and level == 2
    assert cec(net, out).status == "equivalent"


def test_shared_literal_area():
    # a*b + a*c: area iteration removes redundancy via factoring
    net = LogicNetwork(nw.AIG)
    a, b, c = net.add_pi(), net.add_pi(), net.add_pi()
    g = ~net.add_and(~net.add_and(a, b), ~net.add_and(a, c))
    net.add_po(g)
    out, report = optimize_iterate(net, nw.AIG, mix=nw.AIG)
    assert network_metrics(out)[0] <= network_metrics(net)[0]
    assert cec(net, out).status == "equivalent"


def test_graph_map_all_targets_equivalent():
    rng = random.Random(51)
    for _ in range(6):
        net = random_network(rng.randint(4, 7), rng.randint(10, 30),
                             rng.randint(0, 10**9),
                             n_pos=rng.randint(1, 3))
        cn = ChoiceNetwork(net.one_to_one_map(nw.AIG))
        for target in (nw.AIG, nw.XAG, nw.MIG, nw.XMG):
            out = graph_map(cn, target, MapParams())
            assert out.tag == target
            assert cec(net, out).status == "equivalent"


def test_an_unknown_target_is_a_map_error():
    import pytest

    from mch.mapper import MapError

    net = parity8()
    with pytest.raises(MapError, match="unknown representation tag 'lut'"):
        graph_map(ChoiceNetwork(net), "lut")
    with pytest.raises(MapError, match="unknown representation tag 'lut'"):
        optimize_iterate(net, "lut")
    with pytest.raises(MapError, match="unknown representation tag 'lut'"):
        optimize_iterate(net, nw.AIG, mix="lut")


def test_optimize_iterate_reaches_fixpoint():
    net = parity8()
    out, report = optimize_iterate(net, nw.XMG)
    assert report.termination == FIXPOINT
    assert cec(net, out).status == "equivalent"
    # per-step costs never increase
    nodes = [s.nodes for s in report.steps if s.accepted]
    assert nodes == sorted(nodes, reverse=True)


def test_optimize_iterate_cost_monotone():
    rng = random.Random(52)
    for _ in range(5):
        net = random_network(rng.randint(5, 7), rng.randint(15, 30),
                             rng.randint(0, 10**9))
        out, report = optimize_iterate(
            net, nw.XMG, params=MapParams(mode=AREA))
        assert network_metrics(out)[0] <= network_metrics(net)[0]
        assert cec(net, out).status == "equivalent"


def test_escape_fixtures_shrink_past_single_representation():
    for name, mk in ESCAPE_FIXTURES:
        net = mk()
        fix, _ = optimize_iterate(net, nw.AIG, mix=nw.AIG)
        out, _ = optimize_iterate(fix, nw.XMG)
        assert network_metrics(out)[0] <= network_metrics(fix)[0], name
        assert cec(net, out).status == "equivalent", name


def test_report_csv_rows():
    net = parity8()
    out, report = optimize_iterate(net, nw.XMG)
    rows = report.csv_rows()
    assert rows[0] == "iteration,nodes,level,accepted"
    assert len(rows) == len(report.steps) + 1


def test_optimize_iterate_compacts_each_network_once(monkeypatch):
    # the input and each iteration's mapped network are compacted once;
    # their costs are read from those copies, and each step's cost is
    # still network_metrics of the network it reports
    made = []
    compact = LogicNetwork.compact

    def counted(self):
        out = compact(self)
        made.append(out)
        return out

    monkeypatch.setattr(LogicNetwork, "compact", counted)
    net = random_network(6, 30, 7)
    out, report = optimize_iterate(net, nw.XMG, params=MapParams(mode=AREA),
                                   max_iters=3)
    assert len(made) == 1 + len(report.steps)
    monkeypatch.setattr(LogicNetwork, "compact", compact)
    for step, got in zip(report.steps, made[1:]):
        assert (step.nodes, step.level) == network_metrics(got)
    assert cec(net, out).status == "equivalent"
