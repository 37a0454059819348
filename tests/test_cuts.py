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
        eng.set_cuts(n, [Cut(lv, sig_of(lv), eng.table(n, lv))
                         for lv in eng.pool(n)])

    for g in (ab, bc, member, rep):
        settle(g.node)
    pool = eng.pool(rep.node)
    assert eng.pool(rep.node) is pool
    from_member = tuple(sorted((a.node, bc.node)))
    assert from_member in pool
    settle(member.node)                 # same leaves: still reused
    assert eng.pool(rep.node) is pool
    eng.set_cuts(member.node, [])       # member keeps only its trivial cut
    assert from_member not in eng.pool(rep.node)


# -- reference: a choice-aware pool over tuple leaf sets ----------------


def _ref_expand(tt, sub, leaves):
    from mch.tt import TruthTable

    bits = 0
    for m in range(1 << len(leaves)):
        sm = 0
        for i, x in enumerate(sub):
            sm |= ((m >> leaves.index(x)) & 1) << i
        bits |= tt.value_at(sm) << m
    return TruthTable.create(bits, len(leaves))


class _RefPools:
    """Cut pools as the engine built them before leaf sets were masks:
    the product merge of the fanin cut sets over sorted tuples, member cuts
    pooled with the phase folded into the table and duplicates dropped, a
    naive dominance filter, and one table per (node, leaves), first request
    wins."""

    def __init__(self, net, k, classes):
        from mch.cuts import Cut, leaf_sig
        from mch.tt import TruthTable

        self.net, self.k, self.classes = net, k, classes
        self.cutsets = {0: [Cut((), 0, TruthTable.const(False))]}
        for n in net.pis:
            self.cutsets[n] = [Cut((n,), leaf_sig(n), TruthTable.var(0, 1))]
        self.combo_of, self.member_tt, self.tables = {}, {}, {}

    def pool(self, n):
        import itertools

        combo_of, member_tt, cands = {}, {}, []
        for combo in itertools.product(
                *(self.cutsets[f.node] for f in self.net.fanins(n))):
            leaves = tuple(sorted(set().union(*(c.leaves for c in combo))))
            if len(leaves) <= self.k and leaves not in combo_of:
                combo_of[leaves] = combo
                cands.append(leaves)
        for m, phase in self.classes.get(n, ()):
            for c in self.cutsets[m]:
                if c.leaves == (m,) or c.leaves in combo_of \
                        or c.leaves in member_tt:
                    continue
                member_tt[c.leaves] = ~c.tt if phase else c.tt
                cands.append(c.leaves)
        sets = [set(lv) for lv in cands]
        self.combo_of[n], self.member_tt[n] = combo_of, member_tt
        return [lv for lv, s in zip(cands, sets)
                if not any(o < s for o in sets)]

    def table(self, n, leaves):
        from mch.tt import maj_tt

        if (n, leaves) not in self.tables:
            tt = self.member_tt[n].get(leaves)
            if tt is None:
                ins = [_ref_expand(c.tt, c.leaves, leaves)
                       for c in self.combo_of[n][leaves]]
                ins = [~t if f.neg else t
                       for f, t in zip(self.net.fanins(n), ins)]
                kind = self.net.kind(n)
                tt = (ins[0] & ins[1] if kind == nw.AND2
                      else ins[0] ^ ins[1] if kind == nw.XOR2
                      else maj_tt(*ins))
            self.tables[(n, leaves)] = tt
        return self.tables[(n, leaves)]


def test_engine_pools_with_members_match_reference():
    from mch.choices import MchParams, build_mch
    from mch.cuts import Cut, CutEngine, leaf_sig
    from mch.mapper import _dep_order
    from mch.strategies import default_library
    from mch.tt import TruthTable

    lib = default_library()
    rng = random.Random(6)
    phases, from_members, changed = set(), 0, 0
    for i in range(6):
        net = random_network(rng.randint(4, 6), rng.randint(15, 30),
                             rng.randint(0, 10**9), n_pos=2)
        cn = build_mch(net, lib, MchParams(r=0.8),
                       mix_target=(nw.XMG, nw.XAG)[i % 2])
        classes = {r: [(m, cn.phase[m]) for m in cn.members(r)]
                   for r in cn.first_choice}
        phases |= {ph for pairs in classes.values() for _, ph in pairs}
        base, k = cn.base, (4, 6)[i % 2]
        eng, ref = CutEngine(base, k, classes), _RefPools(base, k, classes)
        # each round keeps a different slice of every pool, so the fanin
        # and member cut lists change from round to round
        picks = [lambda p: p[:3], lambda p: p[::-1][:2],
                 lambda p: rng.sample(p, min(4, len(p)))]
        last: dict = {}
        for pick in picks:
            for n in _dep_order(cn):
                got = eng.pool(n)
                assert got == ref.pool(n), n
                from_members += sum(lv in ref.member_tt[n] for lv in got)
                for lv in got:
                    assert eng.table(n, lv) == ref.table(n, lv), (n, lv)
                elem = tuple(sorted({f.node for f in base.fanins(n)}))
                for lv in [elem] + got:
                    assert eng.merged(n, lv) == (lv in ref.combo_of[n])
                keep = pick(got)
                changed += last.get(n, keep) != keep
                last[n] = keep
                eng.set_cuts(n, [Cut(lv, sig_of(lv), eng.table(n, lv))
                                 for lv in keep])
                ref.cutsets[n] = [Cut(lv, sig_of(lv), ref.table(n, lv))
                                  for lv in keep] + [
                    Cut((n,), leaf_sig(n), TruthTable.var(0, 1))]
    assert phases == {False, True}
    assert from_members > 0 and changed > 0


def test_tables_of_cuts_stored_without_one_come_from_their_first_pool():
    # cuts stored without a table (as the LUT mapper stores them) get the
    # table of the pool they were first stored from, however the pools
    # change before the table is read
    from mch.choices import MchParams, build_mch
    from mch.cuts import Cut, CutEngine
    from mch.mapper import _dep_order
    from mch.strategies import default_library
    from mch.tt import TruthTable

    lib = default_library()
    rng = random.Random(8)
    stored = 0
    for i in range(4):
        net = random_network(rng.randint(4, 6), rng.randint(15, 30),
                             rng.randint(0, 10**9), n_pos=2)
        cn = build_mch(net, lib, MchParams(r=0.8),
                       mix_target=(nw.XMG, nw.XAG)[i % 2])
        classes = {r: [(m, cn.phase[m]) for m in cn.members(r)]
                   for r in cn.first_choice}
        base, k = cn.base, (4, 6)[i % 2]
        eng, ref = CutEngine(base, k, classes), _RefPools(base, k, classes)
        kept = set()
        for pick in (lambda p: p[:3], lambda p: p[::-1][:2],
                     lambda p: rng.sample(p, min(4, len(p)))):
            for n in _dep_order(cn):
                got = eng.pool(n)
                assert got == ref.pool(n)
                keep = pick(got)
                eng.set_cuts(n, [Cut(lv) for lv in keep])
                ref.cutsets[n] = [Cut(lv, 0, ref.table(n, lv))
                                  for lv in keep] + [
                    Cut((n,), 0, TruthTable.var(0, 1))]
                kept |= {(n, lv) for lv in keep}
        for n, lv in sorted(kept, reverse=True):
            assert eng.table(n, lv) == ref.table(n, lv), (n, lv)
        stored += len(kept)
    assert stored > 0


def test_engine_answers_the_elementary_merge_when_it_is_dominated():
    from mch.cuts import Cut, CutEngine
    from mch.tt import TruthTable, cut_truth

    net = LogicNetwork(nw.AIG)
    a, b, c = net.add_pi(), net.add_pi(), net.add_pi()
    rep = net.add_and(a, b)
    member = net.add_and(a, c)
    net.add_po(rep)
    eng = CutEngine(net, 4, {rep.node: [(member.node, False)]})
    # a member cut over a alone dominates the elementary merge {a, b}
    eng.set_cuts(member.node, [Cut((a.node,), 0, TruthTable.var(0, 1))])
    elem = (a.node, b.node)
    assert eng.pool(rep.node) == [(a.node,)]
    assert eng.merged(rep.node, elem)
    assert not eng.merged(rep.node, (a.node,))
    assert eng.table(rep.node, elem) == cut_truth(net, rep.node, list(elem))
