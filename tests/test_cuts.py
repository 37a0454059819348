import random

from mch import network as nw
from mch.network import LogicNetwork
from mch.cuts import is_cut, enumerate_cuts, all_cuts_bruteforce, sig_of
from mch.gen import random_network


def small_chain():
    net = LogicNetwork(nw.AIG)
    a, b, c = net.add_pi(), net.add_pi(), net.add_pi()
    g1 = net.add_and(a, b)
    g2 = net.add_and(g1, c)
    net.add_po(g2)
    return net, a, b, c, g1, g2


def test_is_cut_trivial():
    net, a, b, c, g1, g2 = small_chain()
    assert is_cut(net, g2.node, (g2.node,))
    assert is_cut(net, g1.node, (a.node, b.node))


def test_is_cut_full_support():
    net, a, b, c, g1, g2 = small_chain()
    assert is_cut(net, g2.node, (a.node, b.node, c.node))
    assert is_cut(net, g2.node, (g1.node, c.node))


def test_is_cut_rejects_partial():
    net, a, b, c, g1, g2 = small_chain()
    assert not is_cut(net, g2.node, (a.node, b.node))
    assert not is_cut(net, g2.node, (g1.node,))


def test_and_gate_cuts():
    net = LogicNetwork(nw.AIG)
    a, b = net.add_pi(), net.add_pi()
    g = net.add_and(a, b)
    net.add_po(g)
    cuts = enumerate_cuts(net, 4, None)[g.node]
    leaf_sets = {c.leaves for c in cuts}
    assert (g.node,) in leaf_sets
    assert tuple(sorted((a.node, b.node))) in leaf_sets


def test_chain_k3_includes_pi_cut():
    net, a, b, c, g1, g2 = small_chain()
    cuts = enumerate_cuts(net, 3, None)[g2.node]
    leaf_sets = {cc.leaves for cc in cuts}
    assert tuple(sorted((a.node, b.node, c.node))) in leaf_sets


def test_cut_property_holds_for_all_enumerated():
    net = random_network(6, 25, 42)
    cutsets = enumerate_cuts(net, 4, None)
    for g in net.gates():
        for c in cutsets[g]:
            assert is_cut(net, g, c.leaves)


def test_truncation_respects_limit():
    net = random_network(8, 40, 11)
    cutsets = enumerate_cuts(net, 4, 3)
    for g in net.gates():
        # l priority cuts plus the trivial cut
        assert len(cutsets[g]) <= 4


def test_matches_bruteforce_small():
    rng = random.Random(5)
    for _ in range(10):
        net = random_network(rng.randint(3, 6), rng.randint(5, 25),
                             rng.randint(0, 10**9))
        cutsets = enumerate_cuts(net, 4, None)
        for g in net.gates():
            got = sorted(c.leaves for c in cutsets[g])
            want = sorted(all_cuts_bruteforce(net, g, 4))
            assert got == want


def test_cut_tts_match_simulation():
    from mch.tt import cut_truth
    net = random_network(5, 20, 3)
    cutsets = enumerate_cuts(net, 4, None)
    for g in net.gates():
        for c in cutsets[g]:
            assert c.tt.bits == cut_truth(net, g, list(c.leaves)).bits


# -- reference: the per-network enumeration before the shared engine ----


def _ref_merge_fanin_cuts(fanin_cuts, k):
    """Cross product of fanin cut sets, k-bounded, duplicates and
    dominated sets dropped, first occurrences kept in product order."""
    import itertools

    cands = []
    for combo in itertools.product(*fanin_cuts):
        sig = 0
        for c in combo:
            sig |= c.sig
        if sig.bit_count() > k:
            continue
        merged = set()
        for c in combo:
            merged |= set(c.leaves)
        if len(merged) <= k:
            cands.append((tuple(sorted(merged)), sig_of(merged)))
    uniq = list(dict.fromkeys(cands))
    sets = [set(leaves) for leaves, _ in uniq]
    return [p for p, s in zip(uniq, sets)
            if not any(o < s for o in sets)]


def _ref_enumerate_cuts(net, k, l):
    from mch.cuts import Cut, leaf_sig
    from mch.tt import TruthTable, cut_truth

    cutsets = {0: [Cut((), 0, TruthTable.const(False))]}
    for n in net.pis:
        cutsets[n] = [Cut((n,), leaf_sig(n), TruthTable.var(0, 1))]
    for n in net.gates():
        kept = _ref_merge_fanin_cuts(
            [cutsets[f.node] for f in net.fanins(n)], k)
        cuts = sorted((Cut(lv, sg) for lv, sg in kept),
                      key=lambda c: (len(c.leaves), c.sig, c.leaves))
        if l is not None:
            cuts = cuts[:l]
        cuts.append(Cut((n,), leaf_sig(n)))
        cutsets[n] = [Cut(c.leaves, c.sig, cut_truth(net, n, list(c.leaves)))
                      for c in cuts]
    return cutsets


def test_engine_matches_reference_enumeration():
    from mch.tt import cut_truth

    rng = random.Random(2024)
    for i in range(30):
        tag = nw.AIG if i % 2 == 0 else nw.XMG
        net = random_network(rng.randint(4, 8), rng.randint(10, 40),
                             rng.randint(0, 10**9), tag=tag,
                             n_pos=rng.randint(1, 3))
        for k in (3, 4, 6):
            for l in (None, 8):
                got = enumerate_cuts(net, k, l)
                want = _ref_enumerate_cuts(net, k, l)
                assert got.keys() == want.keys()
                for n in net.gates():
                    assert [(c.leaves, c.sig) for c in got[n]] == \
                        [(c.leaves, c.sig) for c in want[n]]
                    for c in got[n]:
                        assert c.tt == cut_truth(net, n, list(c.leaves))


def test_engine_reuses_a_pool_until_a_fanin_or_member_changes():
    from mch.cuts import Cut, CutEngine

    net = LogicNetwork(nw.AIG)
    a, b, c = net.add_pi(), net.add_pi(), net.add_pi()
    ab = net.add_and(a, b)
    rep = net.add_and(ab, c)
    bc = net.add_and(b, c)
    member = net.add_and(a, bc)
    net.add_po(rep)
    eng = CutEngine(net, 4, {rep.node: [(member.node, False)]})

    def settle(n):
        eng.set_cuts(n, [Cut(lv, sg, eng.table(n, lv))
                         for lv, sg in eng.pool(n)])

    for g in (ab, bc, member, rep):
        settle(g.node)
    pool = eng.pool(rep.node)
    assert eng.pool(rep.node) is pool
    from_member = tuple(sorted((a.node, bc.node)))
    assert from_member in [lv for lv, _ in pool]
    settle(member.node)                 # same leaves: still reused
    assert eng.pool(rep.node) is pool
    eng.set_cuts(member.node, [])       # member keeps only its trivial cut
    assert from_member not in [lv for lv, _ in eng.pool(rep.node)]
