import random

import pytest

from mch import network as nw
from mch.gen import random_network
from mch.network import LogicNetwork, Signal


def _reference_random_network(n_pis, n_gates, seed, tag=nw.AIG, n_pos=None):
    """The generator as it was when it rescanned the gates every step."""
    rng = random.Random(seed)
    net = LogicNetwork(tag)
    sigs = [net.add_pi() for _ in range(n_pis)]
    kinds = sorted(nw.ALLOWED_KINDS[tag])
    tries = 0
    while net.num_gates() < n_gates and tries < n_gates * 50:
        tries += 1
        kind = rng.choice(kinds)
        arity = 3 if kind == nw.MAJ3 else 2
        ins = [Signal(rng.choice(sigs).node, rng.random() < 0.5)
               for _ in range(arity)]
        before = len(net)
        s = net.add(kind, ins)
        if len(net) > before:
            sigs.append(s)
    refs = [len(o) for o in net.fanouts()]
    dangling = [n for n in net.gates() if refs[n] == 0]
    if not dangling:
        dangling = [max(net.gates(), default=0)]
    if n_pos is not None:
        while len(dangling) < n_pos:
            dangling.append(rng.choice(sigs).node)
        dangling = dangling[:n_pos]
    for n in dangling:
        net.add_po(Signal(n, rng.random() < 0.5))
    return net


@pytest.mark.parametrize("n_pis,n_gates,seed,tag,n_pos", [
    (4, 30, 1, nw.AIG, None),
    (8, 200, 2, nw.XAG, None),
    (6, 150, 3, nw.MIG, 5),
    (10, 400, 4, nw.XMG, None),
    (2, 50, 5, nw.AIG, 3),  # few inputs: many strash hits and retries
    (16, 0, 6, nw.XMG, None),
])
def test_random_network_matches_rescanning_generator(n_pis, n_gates, seed,
                                                     tag, n_pos):
    got = random_network(n_pis, n_gates, seed, tag, n_pos)
    want = _reference_random_network(n_pis, n_gates, seed, tag, n_pos)
    assert len(got) == len(want)
    assert [got.kind(n) for n in range(len(got))] == \
        [want.kind(n) for n in range(len(want))]
    assert [got.fanins(n) for n in range(len(got))] == \
        [want.fanins(n) for n in range(len(want))]
    assert got.pis == want.pis
    assert got.outputs == want.outputs
