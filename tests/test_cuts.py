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


def _weight_key(rng, size):
    """A random sort key that keeps every cut after its subsets: the
    largest and the summed integer weight of its leaves, then its leaf
    count.  Returns the engine's vectorized key and the same key over a
    leaf tuple."""
    import numpy as np

    wa = [rng.randint(0, 9) for _ in range(size)]
    wb = [rng.randint(0, 9) for _ in range(size)]
    # the engine pads leaf rows with -1, which reads the last entry, 0
    va, vb = np.array(wa + [0]), np.array(wb + [0])

    def key(leaves, sz):
        return va[leaves].max(axis=1), vb[leaves].sum(axis=1), sz

    def ref_key(lv):
        return max(wa[x] for x in lv), sum(wb[x] for x in lv), len(lv)
    return key, ref_key


def _choice_engines(rng, i):
    """A choice network's engine and reference pools, with members of
    both phases (XMG or XAG mix, k = 4 or 6)."""
    from mch.choices import MchParams, build_mch
    from mch.cuts import CutEngine
    from mch.mapper import _dep_order
    from mch.strategies import default_library

    net = random_network(rng.randint(4, 6), rng.randint(15, 30),
                         rng.randint(0, 10**9), n_pos=2)
    cn = build_mch(net, default_library(), MchParams(r=0.8),
                   mix_target=(nw.XMG, nw.XAG)[i % 2])
    classes = {r: [(m, cn.phase[m]) for m in cn.members(r)]
               for r in cn.first_choice}
    base, k = cn.base, (4, 6)[i % 2]
    return (cn, classes, CutEngine(base, k, classes, _dep_order(cn)),
            _RefPools(base, k, classes))


def test_engine_pools_with_members_match_reference():
    from mch.cuts import Cut, leaf_sig
    from mch.tt import TruthTable

    rng = random.Random(6)
    phases, from_members, changed, levels = set(), 0, 0, 0
    for i in range(6):
        cn, classes, eng, ref = _choice_engines(rng, i)
        base = cn.base
        phases |= {ph for pairs in classes.values() for _, ph in pairs}
        # each round stores an arbitrary slice of every pool: all of it,
        # then the best 3 and the best 2 under random keys, so the fanin
        # and member cut lists change from round to round
        last: dict = {}
        for l in (None, 3, 2):
            key, ref_key = _weight_key(rng, len(base))
            for lv in eng.round(key, l):
                levels += 1
                for j, n in enumerate(lv.node_list):
                    got = lv.pool(j)
                    assert got == ref.pool(n), n
                    from_members += sum(c in ref.member_tt[n] for c in got)
                    elem = tuple(sorted({f.node for f in base.fanins(n)}))
                    for c in [elem] + got:
                        assert lv.merged(j, c) == (c in ref.combo_of[n])
                    keep = sorted(got, key=ref_key)[:l]
                    assert eng.cutsets[n] == keep + [(n,)], n
                    for c in keep:
                        assert eng.table(n, c) == ref.table(n, c), (n, c)
                    changed += last.get(n, keep) != keep
                    last[n] = keep
                    ref.cutsets[n] = [Cut(c, sig_of(c), ref.table(n, c))
                                      for c in keep] + [
                        Cut((n,), leaf_sig(n), TruthTable.var(0, 1))]
    assert phases == {False, True}
    assert from_members > 0 and changed > 0 and levels > 0


def test_tables_of_cuts_stored_without_one_come_from_their_first_pool():
    # the engine stores cuts without tables (as the LUT mapper reads
    # them); each gets the table of the pool it was first stored from,
    # however the pools change before the table is read
    from mch.cuts import Cut
    from mch.tt import TruthTable

    rng = random.Random(8)
    stored = 0
    for i in range(4):
        cn, _, eng, ref = _choice_engines(rng, i)
        kept = set()
        for l in (3, 2, 4):
            key, ref_key = _weight_key(rng, len(cn.base))
            for lv in eng.round(key, l):
                for j, n in enumerate(lv.node_list):
                    got = lv.pool(j)
                    assert got == ref.pool(n)
                    keep = sorted(got, key=ref_key)[:l]
                    assert eng.cutsets[n] == keep + [(n,)]
                    ref.cutsets[n] = [Cut(c, 0, ref.table(n, c))
                                      for c in keep] + [
                        Cut((n,), 0, TruthTable.var(0, 1))]
                    kept |= {(n, c) for c in keep}
        for n, c in sorted(kept, reverse=True):
            assert eng.table(n, c) == ref.table(n, c), (n, c)
        stored += len(kept)
    assert stored > 0


def _structural_key(leaves, size):
    return (size, *leaves.T)


def test_engine_answers_the_elementary_merge_when_it_is_dominated():
    from mch.cuts import CutEngine
    from mch.tt import cut_truth

    net = LogicNetwork(nw.XMG)
    a, b, c = net.add_pi(), net.add_pi(), net.add_pi()
    rep = net.add_maj(a, b, c)
    member = net.add_and(a, b)
    net.add_po(rep)
    # the member's cut {a, b} dominates the elementary merge {a, b, c}
    eng = CutEngine(net, 4, {rep.node: [(member.node, False)]},
                    [member.node, rep.node])
    elem = (a.node, b.node, c.node)
    for lv in eng.round(_structural_key, None, elem=True):
        for j, n in enumerate(lv.node_list):
            if n == rep.node:
                assert lv.pool(j) == [(a.node, b.node)]
                assert lv.merged(j, elem)
                assert not lv.merged(j, (a.node, b.node))
    # the cell mapper's round stores it after the pool's cuts
    assert eng.cutsets[rep.node] == [(a.node, b.node), elem, (rep.node,)]
    assert eng.table(rep.node, elem) == cut_truth(net, rep.node, list(elem))
    assert eng.table(rep.node, (a.node, b.node)) == \
        cut_truth(net, member.node, [a.node, b.node])


def test_a_member_with_only_its_trivial_cut_adds_nothing_to_the_pool():
    # at k=2 the MAJ3 member has no cut but its trivial one
    from mch.cuts import CutEngine

    net = LogicNetwork(nw.XMG)
    a, b, c = net.add_pi(), net.add_pi(), net.add_pi()
    rep = net.add_and(a, b)
    member = net.add_maj(a, b, c)
    net.add_po(rep)
    eng = CutEngine(net, 2, {rep.node: [(member.node, False)]},
                    [member.node, rep.node])
    empty = []
    for lv in eng.round(_structural_key, 8):
        empty += lv.empty
        for j, n in enumerate(lv.node_list):
            if n == rep.node:
                assert lv.pool(j) == [(a.node, b.node)]
    assert empty == [member.node]
    assert eng.cutsets[member.node] == [(member.node,)]
    assert eng.cutsets[rep.node] == [(a.node, b.node), (rep.node,)]


def test_maj3_at_k2_keeps_its_two_leaf_cut():
    # MAJ(a, b, a & b) has a 2-leaf cut below its arity; the plain MAJ
    # beside it has none
    from mch.choices import ChoiceNetwork
    from mch.mapper import MapParams, cover_check, map_lut
    from mch.tt import cut_truth

    net = LogicNetwork(nw.XMG)
    a, b, c = net.add_pi(), net.add_pi(), net.add_pi()
    ab = net.add_and(a, b)
    m = net.add_maj(a, b, ab)
    net.add_po(m)
    cutsets = enumerate_cuts(net, 2, 8)
    assert [x.leaves for x in cutsets[m.node]] == [(a.node, b.node),
                                                   (m.node,)]
    assert cutsets[m.node][0].tt == cut_truth(net, m.node, [a.node, b.node])
    mapped = map_lut(ChoiceNetwork(net), MapParams(k=2))
    assert mapped.stats["area"] == 1 and cover_check(mapped, net)
    net.add_po(net.add_maj(a, b, c))
    assert [x.leaves for x in enumerate_cuts(net, 2, 8)[len(net) - 1]] == \
        [(len(net) - 1,)]


def test_pool_over_more_than_64_leaves():
    # 34 members over two fresh PIs each and one over a gate, PI 3 and
    # two more PIs: the representative's pool reads 73 distinct leaves,
    # two mask words
    from mch.cuts import Cut, CutEngine, leaf_sig
    from mch.tt import TruthTable

    net = LogicNetwork(nw.AIG)
    pis = [net.add_pi() for _ in range(72)]
    rep = net.add_and(pis[0], pis[1])
    members = [(net.add_and(pis[2 * i], ~pis[2 * i + 1]).node, i % 2 == 0)
               for i in range(1, 35)]
    inner = net.add_and(pis[70], pis[71])
    members.append((net.add_and(inner, pis[3]).node, True))
    net.add_po(rep)
    classes = {rep.node: members}
    order = [m for m, _ in members[:-1]] + [inner.node, members[-1][0],
                                            rep.node]
    eng, ref = CutEngine(net, 4, classes, order), _RefPools(net, 4, classes)
    pool = None
    for lv in eng.round(_structural_key, None):
        for j, n in enumerate(lv.node_list):
            got = lv.pool(j)
            assert got == ref.pool(n)
            if n == rep.node:
                pool = got
            ref.cutsets[n] = [Cut(c, 0, ref.table(n, c))
                              for c in sorted(got, key=lambda c: (len(c), c))
                              ] + [Cut((n,), leaf_sig(n),
                                       TruthTable.var(0, 1))]
            for c in got:
                assert eng.table(n, c) == ref.table(n, c)
    assert len({x for c in pool for x in c}) > 64
    assert len(pool) == 1 + 34 + 2


def test_a_cut_stored_again_from_another_source_keeps_its_first_table():
    # {y, b, c} is first stored for rep as its own merge, y & b & c; in
    # the second round x no longer stores {y, b}, and the same leaves come
    # from the (deliberately different) member's cut, y | b | c
    import numpy as np

    from mch.cuts import CutEngine
    from mch.tt import cut_truth

    net = LogicNetwork(nw.AIG)
    a, b, c, d = (net.add_pi() for _ in range(4))
    y = net.add_and(a, d)
    x = net.add_and(y, b)
    rep = net.add_and(x, c)
    t = net.add_or(y, c)
    member = net.add_or(t, b)
    net.add_po(rep)
    eng = CutEngine(net, 4, {rep.node: [(member.node, member.neg)]},
                    [y.node, x.node, t.node, member.node, rep.node])
    leaves = tuple(sorted((y.node, b.node, c.node)))
    for _ in eng.round(_structural_key, None):
        pass
    assert leaves in eng.cutsets[rep.node]
    wa, wb = np.zeros(len(net) + 1, int), np.zeros(len(net) + 1, int)
    wa[[y.node, c.node, x.node, t.node]] = 5, 9, 9, 9
    wb[[y.node, a.node, d.node, x.node, t.node]] = 1, 1, 1, 9, 9

    def key(lv, size):
        return wa[lv].max(axis=1), wb[lv].sum(axis=1), size

    for _ in eng.round(key, 1):
        pass
    assert eng.cutsets[x.node] == [(a.node, b.node, d.node), (x.node,)]
    assert eng.cutsets[rep.node] == [leaves, (rep.node,)]
    assert eng.table(rep.node, leaves) == cut_truth(net, rep.node,
                                                    list(leaves))
