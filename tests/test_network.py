import pytest

from mch import network as nw
from mch.network import LogicNetwork, Signal, UnsupportedConversion, \
    exhaustive_patterns

from fixtures import aig_xor, parity8, adder3


def test_signal_invert_and_with_neg():
    s = Signal(5, False)
    assert (~s).neg is True
    assert ~~s == s
    assert s.with_neg(True) == Signal(5, True)
    assert Signal(5, True).with_neg(True) == Signal(5, False)


def test_constants_and_pis():
    net = LogicNetwork(nw.AIG)
    a = net.add_pi()
    assert net.const0 == Signal(0, False)
    assert net.is_pi(a.node)
    assert not net.is_gate(a.node)


def test_strash_merges_duplicates():
    net = LogicNetwork(nw.AIG)
    a, b = net.add_pi(), net.add_pi()
    g1 = net.add_and(a, b)
    g2 = net.add_and(a, b)
    g3 = net.add_and(b, a)
    assert g1 == g2 == g3


def test_and_constant_folding():
    net = LogicNetwork(nw.AIG)
    a = net.add_pi()
    assert net.add_and(a, net.const0) == net.const0
    assert net.add_and(a, ~net.const0) == a
    assert net.add_and(a, ~a) == net.const0
    assert net.add_and(a, a) == a


def test_xor_maj_folding():
    net = LogicNetwork(nw.XMG)
    a, b = net.add_pi(), net.add_pi()
    assert net.add_xor(a, a) == net.const0
    assert net.add_xor(a, ~a) == ~net.const0
    assert net.add_xor(a, net.const0) == a
    # MAJ with a constant input degenerates to AND / OR
    g = net.add_maj(a, b, net.const0)
    assert net.kind(g.node) == nw.AND2
    g = net.add_maj(a, b, ~net.const0)
    assert net.kind(g.node) == nw.AND2 and g.neg


def test_allowed_kinds_enforced():
    net = LogicNetwork(nw.AIG)
    a, b = net.add_pi(), net.add_pi()
    with pytest.raises(Exception):
        net.add_xor(a, b)


def test_levels():
    net = LogicNetwork(nw.AIG)
    a, b, c = net.add_pi(), net.add_pi(), net.add_pi()
    g1 = net.add_and(a, b)
    g2 = net.add_and(g1, c)
    net.add_po(g2)
    lm = net.compute_levels()
    assert lm.level[g1.node] == 1 and lm.level[g2.node] == 2
    assert lm.network_level == 2


def test_compact_drops_dangling_but_keeps_pis():
    net = LogicNetwork(nw.AIG)
    a, b, c = net.add_pi(), net.add_pi(), net.add_pi()
    net.add_and(a, c)          # dangling
    net.add_po(net.add_and(a, b))
    small = net.compact()
    assert len(small.pis) == 3
    assert sum(1 for _ in small.gates()) == 1


def test_one_to_one_map_round_trip():
    net = parity8()
    x = net.one_to_one_map(nw.XAG)
    assert x.tag == nw.XAG
    assert x.exhaustive_outputs() == net.exhaustive_outputs()


def test_one_to_one_map_rejects_incompatible():
    net = LogicNetwork(nw.XAG)
    a, b = net.add_pi(), net.add_pi()
    net.add_po(net.add_xor(a, b))
    with pytest.raises(UnsupportedConversion):
        net.one_to_one_map(nw.AIG)


def test_and2_legal_in_mig():
    net = LogicNetwork(nw.AIG)
    a, b = net.add_pi(), net.add_pi()
    net.add_po(net.add_and(a, b))
    m = net.one_to_one_map(nw.MIG)
    assert m.exhaustive_outputs() == net.exhaustive_outputs()


def test_simulate_matches_exhaustive():
    net = adder3()
    pats = exhaustive_patterns(net.pis)
    words = net.output_values(pats, 1 << len(net.pis))
    assert words == net.exhaustive_outputs()


def test_exhaustive_patterns_shape():
    pats = exhaustive_patterns([1, 2, 3])
    assert pats[1] == 0b10101010
    assert pats[2] == 0b11001100
    assert pats[3] == 0b11110000


def test_xor_helper_builds_parity():
    net = LogicNetwork(nw.AIG)
    a, b = net.add_pi(), net.add_pi()
    net.add_po(aig_xor(net, a, b))
    assert net.exhaustive_outputs() == [0b0110]


# -- mffc ------------------------------------------------------------------


def _reference_mffc(net, n, max_leaves=None):
    """The quadratic descending-scan MFFC that the heap walk replaced."""
    if not net.is_gate(n):
        return {n}
    cone = {n}
    # candidate members in reverse topological order of the TFI of n
    cand = sorted((m for m in net.tfi([n]) if net.is_gate(m) and m != n),
                  reverse=True)
    fanout_map: dict[int, list[int]] = {}
    for g in net.gates():
        for f in net.fanins(g):
            fanout_map.setdefault(f.node, []).append(g)
    for s in net.outputs:
        fanout_map.setdefault(s.node, []).append(-1)  # PO pseudo-fanout

    def support(members: set[int]) -> set[int]:
        leaves = set()
        for m in members:
            for f in net.fanins(m):
                if f.node not in members:
                    leaves.add(f.node)
        return leaves

    for m in cand:
        outs = fanout_map.get(m, [])
        if any(o == -1 or o not in cone for o in outs):
            continue
        trial = cone | {m}
        if max_leaves is not None and len(support(trial)) > max_leaves:
            continue
        cone = trial
    return cone


MFFC_BOUNDS = (None, 2, 3, 4, 6, 8)


def _mffc_nets():
    from mch.gen import random_network
    for i in range(50):
        tag = nw.AIG if i % 2 else nw.XMG
        net = random_network(6 + i % 5, 20 + i, seed=100 + i, tag=tag)
        for g in list(net.gates())[i % 7::7]:  # POs on internal gates too
            net.add_po(Signal(g, g % 2 == 0))
        yield net


def test_mffc_matches_reference_descending_scan():
    for net in _mffc_nets():
        fanouts = net.fanouts()
        for n in net.gates():
            for k in MFFC_BOUNDS:
                want = _reference_mffc(net, n, k)
                assert net.mffc(n, k, fanouts)[0] == want, (net.tag, n, k)
                assert net.mffc(n, k)[0] == want


def test_mffc_members_are_fanout_free_and_leaf_bounded():
    for net in _mffc_nets():
        fanouts = net.fanouts()
        po_drivers = {s.node for s in net.outputs}
        for n in net.gates():
            for k in MFFC_BOUNDS:
                cone, leaves = net.mffc(n, k, fanouts)
                assert n in cone
                for m in cone - {n}:
                    assert net.is_gate(m)
                    assert m not in po_drivers
                    assert all(o in cone for o in fanouts[m])
                # the returned leaves are the cone's boundary
                assert leaves == {f.node for m in cone for f in net.fanins(m)
                                  if f.node not in cone}
                # the bound limits growth: the root alone may exceed it
                if k is not None and len(cone) > 1:
                    assert len(leaves) <= k


def test_mffc_of_pi_or_constant_is_itself():
    net = LogicNetwork(nw.AIG)
    a, b = net.add_pi(), net.add_pi()
    net.add_po(net.add_and(a, b))
    assert net.mffc(a.node)[0] == {a.node}
    assert net.mffc(0, 4)[0] == {0}


def test_fanouts_mark_po_references():
    net = LogicNetwork(nw.AIG)
    a, b = net.add_pi(), net.add_pi()
    g = net.add_and(a, b)
    net.add_po(g)
    net.add_po(~g)
    outs = net.fanouts()
    assert outs[a.node] == [g.node] and outs[b.node] == [g.node]
    assert outs[g.node] == [-1, -1]
    assert outs[0] == []


def test_choice_generation_builds_one_fanout_map(monkeypatch):
    from mch.choices import MchParams, multi_strategy_choices
    from mch.cuts import enumerate_cuts
    from mch.gen import random_network
    from mch.strategies import default_library

    net = random_network(8, 120, seed=7, tag=nw.XMG)
    params = MchParams()
    critical = net.critical_path_nodes(params.r)
    cutsets = enumerate_cuts(net, params.k, params.l)
    calls = []
    real = LogicNetwork.fanouts

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(LogicNetwork, "fanouts", counted)
    cn = multi_strategy_choices(net, critical, cutsets, default_library(),
                                params)
    assert cn.stats.other_nodes > 1
    assert calls == [net]


def test_edge_views_of_a_built_xmg_choice_network():
    """`kind`, `fanins`, `nodes` and `outputs` read the column storage
    back as kind names and Signals with bool negs, which the benchmark's
    oracle and fingerprint read."""
    from mch.choices import MchParams, build_mch
    from mch.strategies import default_library

    cn = build_mch(adder3(), default_library(), MchParams(r=0.8),
                   mix_target=nw.XMG)
    net = cn.base
    assert cn.classes
    kinds = (nw.CONST0, nw.PI, nw.AND2, nw.XOR2, nw.MAJ3)
    pairs = list(net.nodes())
    assert len(pairs) == len(net)
    for n, pair in enumerate(pairs):
        assert type(pair) is tuple and len(pair) == 2
        kind, fanins = pair
        assert kind in kinds and kind == net.kind(n)
        assert type(fanins) is tuple and fanins == net.fanins(n)
        assert len(fanins) == nw.ARITY.get(kind, 0)
        for f in fanins:
            assert type(f) is Signal and type(f.node) is int
            assert type(f.neg) is bool and 0 <= f.node < n
    assert {kind for kind, _ in pairs} == set(kinds)
    assert net.outputs
    for s in net.outputs:
        assert type(s) is Signal and type(s.neg) is bool
