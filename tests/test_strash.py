"""The strash core behind `LogicNetwork.add` and `LogicNetwork.insert`:
both entry points build the same arena, by the same simplification rules,
and `insert` checks its input before the arena changes."""

import random

import pytest

from mch import network as nw
from mch.network import LogicNetwork, NetworkError, Signal, \
    UnsupportedConversion, exhaustive_patterns

TAGS = (nw.AIG, nw.XAG, nw.MIG, nw.XMG)
ARITY = {nw.AND2: 2, nw.XOR2: 2, nw.MAJ3: 3}


class _RefStrash:
    """Gate-by-gate strash over Signals, rule for rule as the network's
    add path read before the core worked on (node, neg) pairs."""

    def __init__(self, net: LogicNetwork):
        self.nodes = list(net._nodes)
        self.strash = dict(net._strash)

    def add(self, kind, fs):
        if kind == nw.AND2:
            return self._and(*fs)
        if kind == nw.XOR2:
            return self._xor(*fs)
        return self._maj(*fs)

    def _raw(self, kind, fanins):
        key = (kind, fanins)
        if key not in self.strash:
            self.strash[key] = len(self.nodes)
            self.nodes.append((kind, fanins))
        return Signal(self.strash[key], False)

    def _and(self, a, b):
        if a.node == b.node:
            return a if a.neg == b.neg else Signal(0, False)
        if a.node == 0:
            return b if a.neg else Signal(0, False)
        if b.node == 0:
            return a if b.neg else Signal(0, False)
        return self._raw(nw.AND2, tuple(sorted((a, b))))

    def _xor(self, a, b):
        out = a.neg ^ b.neg
        if a.node == b.node:
            return Signal(0, out)
        if a.node == 0:
            return Signal(b.node, out)
        if b.node == 0:
            return Signal(a.node, out)
        fs = tuple(sorted((Signal(a.node), Signal(b.node))))
        return self._raw(nw.XOR2, fs).with_neg(out)

    def _maj(self, a, b, c):
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            if x.node == y.node:
                return x if x.neg == y.neg else z
        fs = [a, b, c]
        for i, f in enumerate(fs):
            if f.node == 0:
                u, v = (fs[j] for j in range(3) if j != i)
                if f.neg:
                    return ~self._and(~u, ~v)
                return self._and(u, v)
        if sum(f.neg for f in fs) >= 2:
            return ~self._maj(~a, ~b, ~c)
        return self._raw(nw.MAJ3, tuple(sorted(fs)))


def _random_net(tag: str, rng: random.Random, n_pis: int = 4,
                n_gates: int = 30) -> LogicNetwork:
    """Random gates over earlier signals, constants included, with random
    complements and (often) repeated fanins."""
    net = LogicNetwork(tag)
    sigs = [net.const0] + [net.add_pi() for _ in range(n_pis)]
    kinds = sorted(nw.ALLOWED_KINDS[tag])
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        fs = [rng.choice(sigs).with_neg(rng.random() < 0.5)
              for _ in range(ARITY[kind])]
        if rng.random() < 0.3:
            fs[1] = fs[0].with_neg(rng.random() < 0.5)
        sigs.append(net.add(kind, fs))
    for s in rng.sample(sigs, 3):
        net.add_po(s.with_neg(rng.random() < 0.5))
    return net


def _host(tag: str, rng: random.Random, populated: bool) -> LogicNetwork:
    """Six PIs, and with `populated` some random structure over them."""
    if populated:
        return _random_net(tag, rng, n_pis=6, n_gates=40)
    net = LogicNetwork(tag)
    for _ in range(6):
        net.add_pi()
    return net


def _leaves(host: LogicNetwork, rng: random.Random, n: int) -> list:
    pool = [host.const0] + [Signal(p) for p in host.pis]
    pool += [Signal(g) for g in list(host.gates())[:6]]
    return [rng.choice(pool).with_neg(rng.random() < 0.5) for _ in range(n)]


def _rebuild(add, src: LogicNetwork, leaves: list, gates) -> dict:
    """Images of src's nodes, rebuilding `gates` one `add` call each."""
    xlat = {0: Signal(0, False)}
    xlat.update(zip(src.pis, leaves))
    for g in gates:
        xlat[g] = add(src.kind(g), [xlat[f.node].with_neg(f.neg)
                                    for f in src.fanins(g)])
    return xlat


def _snapshot(net: LogicNetwork):
    return list(net._nodes), dict(net._strash)


def _assert_bool_negs(net: LogicNetwork) -> None:
    for n in range(len(net)):
        for f in net.fanins(n):
            assert type(f.neg) is bool, (n, f)


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("populated", [False, True])
def test_insert_matches_add_gate_by_gate(tag, populated):
    for seed in range(12):
        rng = random.Random(f"{tag}:{populated}:{seed}")
        src = _random_net(tag, rng)
        state = rng.getstate()
        a = _host(tag, rng, populated)
        rng.setstate(state)
        b = _host(tag, rng, populated)
        leaves = _leaves(a, rng, len(src.pis))
        gates = list(src.gates())
        if populated:  # the hosts already hold the image of half of src
            for net in (a, b):
                _rebuild(net.add, src, leaves, gates[:len(gates) // 2])
        assert _snapshot(a) == _snapshot(b)
        ref = _RefStrash(a)

        outs = a.insert(src, leaves)

        xlat = _rebuild(b.add, src, leaves, gates)
        ref_x = _rebuild(ref.add, src, leaves, gates)
        want = [xlat[s.node].with_neg(s.neg) for s in src.outputs]
        assert outs == want
        assert all(type(s) is Signal and type(s.neg) is bool for s in outs)
        assert _snapshot(a) == _snapshot(b)
        assert a._nodes == ref.nodes and a._strash == ref.strash
        assert [ref_x[s.node].with_neg(s.neg) for s in src.outputs] == want
        _assert_bool_negs(a)


def _both(tag: str, kind: str, build):
    """The image of one `kind` gate over the fanins `build(net, pis)`
    names, through add and through insert of a one-gate network, on two
    identical hosts with four PIs; returns (signal, host) after checking
    that both paths agree."""
    results = []
    for via_insert in (False, True):
        net = LogicNetwork(tag)
        pis = [net.add_pi() for _ in range(4)]
        fs = build(net, pis)
        if via_insert:
            src = LogicNetwork(tag)
            sp = [src.add_pi() for _ in fs]
            src.add_po(src.add(kind, sp))
            s = net.insert(src, fs)[0]
        else:
            s = net.add(kind, fs)
        results.append((s, _snapshot(net), net))
    (s0, snap0, _), (s1, snap1, net) = results
    assert s0 == s1 and snap0 == snap1
    _assert_bool_negs(net)
    return s1, net


def test_and_rules():
    for args, want in [
        (lambda n, p: [p[0], p[0]], Signal(1, False)),                # x&x
        (lambda n, p: [p[0], ~p[0]], Signal(0, False)),               # x&~x
        (lambda n, p: [p[1], n.const0], Signal(0, False)),
        (lambda n, p: [n.const1, ~p[1]], Signal(2, True)),
    ]:
        s, net = _both(nw.AIG, nw.AND2, args)
        assert s == want and len(net) == 5
    s, net = _both(nw.AIG, nw.AND2, lambda n, p: [~p[2], p[0]])
    assert s == Signal(5, False)
    assert net.fanins(5) == (Signal(1, False), Signal(3, True))  # sorted


def test_xor_pushes_complements_to_the_output():
    for args, want in [
        (lambda n, p: [p[0], p[0]], Signal(0, False)),
        (lambda n, p: [~p[0], p[0]], Signal(0, True)),
        (lambda n, p: [p[1], n.const1], Signal(2, True)),
        (lambda n, p: [~n.const1, ~p[1]], Signal(2, True)),
    ]:
        s, net = _both(nw.XAG, nw.XOR2, args)
        assert s == want and len(net) == 5
    s, net = _both(nw.XAG, nw.XOR2, lambda n, p: [~p[3], p[1]])
    assert s == Signal(5, True)
    assert net.fanins(5) == (Signal(2, False), Signal(4, False))


def test_maj_rules():
    for args, want in [
        (lambda n, p: [p[0], p[2], p[0]], Signal(1, False)),   # two equal
        (lambda n, p: [~p[0], p[2], p[0]], Signal(3, False)),  # x, ~x, z
        (lambda n, p: [p[1], ~p[1], ~p[3]], Signal(4, True)),
    ]:
        s, net = _both(nw.XMG, nw.MAJ3, args)
        assert s == want and len(net) == 5
    # a constant fanin folds to AND (const0) or OR (const1)
    s, net = _both(nw.MIG, nw.MAJ3, lambda n, p: [p[2], n.const0, ~p[0]])
    assert s == Signal(5, False) and net.kind(5) == nw.AND2
    assert net.fanins(5) == (Signal(1, True), Signal(3, False))
    s, net = _both(nw.MIG, nw.MAJ3, lambda n, p: [p[2], n.const1, ~p[0]])
    assert s == Signal(5, True) and net.kind(5) == nw.AND2
    assert net.fanins(5) == (Signal(1, False), Signal(3, True))
    # at most one complemented fanin, fanins sorted
    s, net = _both(nw.MIG, nw.MAJ3, lambda n, p: [~p[3], p[0], ~p[1]])
    assert s == Signal(5, True) and net.kind(5) == nw.MAJ3
    assert net.fanins(5) == (Signal(1, True), Signal(2, False),
                             Signal(4, False))
    s, net = _both(nw.MIG, nw.MAJ3, lambda n, p: [p[3], ~p[0], p[1]])
    assert s == Signal(5, False)
    assert net.fanins(5) == (Signal(1, True), Signal(2, False),
                             Signal(4, False))


def test_insert_rejects_a_wrong_leaf_count():
    src = LogicNetwork(nw.AIG)
    a, b = src.add_pi(), src.add_pi()
    src.add_po(src.add_and(a, b))
    net = LogicNetwork(nw.AIG)
    x = net.add_pi()
    with pytest.raises(NetworkError):
        net.insert(src, [x])
    with pytest.raises(NetworkError):
        net.insert(src, [x, x, x])


def test_insert_names_a_missing_leaf_node():
    src = LogicNetwork(nw.AIG)
    a, b = src.add_pi(), src.add_pi()
    src.add_po(src.add_and(a, b))
    net = LogicNetwork(nw.AIG)
    x = net.add_pi()
    with pytest.raises(NetworkError, match=r"\b17\b"):
        net.insert(src, [x, Signal(17, True)])
    assert len(net) == 2 and not net._strash


def test_insert_checks_gate_kinds_before_adding_any_node():
    src = LogicNetwork(nw.XAG)
    a, b, c = src.add_pi(), src.add_pi(), src.add_pi()
    src.add_po(src.add_xor(src.add_and(a, b), c))   # AND2 first, then XOR2
    net = LogicNetwork(nw.AIG)
    pis = [net.add_pi() for _ in range(3)]
    net.add_po(net.add_and(pis[1], pis[2]))
    before = _snapshot(net)
    with pytest.raises(UnsupportedConversion, match="xor2"):
        net.insert(src, pis)
    assert len(net) == len(before[0]) and _snapshot(net) == before
    # an XAG source whose gates are all AND2 is accepted
    ands = LogicNetwork(nw.XAG)
    a, b = ands.add_pi(), ands.add_pi()
    ands.add_po(ands.add_and(a, ~b))
    assert net.insert(ands, pis[:2]) == [Signal(len(before[0]))]


def test_exhaustive_patterns_match_their_definition():
    for n in range(13):
        pis = list(range(7, 7 + n))
        pats = exhaustive_patterns(pis)
        assert list(pats) == pis
        for i, p in enumerate(pis):
            want = sum(((j >> i) & 1) << j for j in range(1 << n))
            assert pats[p] == want, (n, i)


def test_exhaustive_patterns_match_the_shift_loop_at_16_pis():
    pis = list(range(1, 17))
    width = 1 << 16
    pats = exhaustive_patterns(pis)
    for i, node in enumerate(pis):
        word, period = 0, 1 << i
        for start in range(period, width, 2 * period):
            word |= ((1 << period) - 1) << start
        assert pats[node] == word
