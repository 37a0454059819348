import hashlib
import random
from pathlib import Path

import pytest

from mch import network as nw
from mch.aiger import read_aiger
from mch.cuts import Cut
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


def test_word_expansion_matches_reference_for_every_position_mask():
    # the engine expands a fanin cut's table word to the merged leaves by
    # the 6-bit mask of where its leaves sit among them
    import numpy as np

    from mch.cuts import _widen
    from mch.tt import TruthTable

    rng = random.Random(10)
    for pos in range(64):
        sub = tuple(i for i in range(6) if pos >> i & 1)
        tts = [TruthTable.create(rng.getrandbits(64), len(sub))
               for _ in range(4)]
        got = _widen(np.array([t.bits for t in tts], np.uint64),
                     np.full(len(tts), pos)).tolist()
        # padded: the same word over any merged cut holding the positions
        for v in sorted({max(sub, default=-1) + 1, 6}):
            for t, g in zip(tts, got):
                assert g == _ref_expand(t, sub, tuple(range(v))).bits, \
                    (pos, v)


def test_word_expansion_at_k_leaves_reads_only_the_first_minterms():
    # below six leaves a padded word repeats its first 2 ** k minterms, so
    # the expansion reads only the bytes that hold them and repeats the
    # result: the same words as the full expansion
    import numpy as np

    from mch.cuts import _widen
    from mch.tt import TruthTable

    rng = random.Random(11)
    for k in range(2, 7):
        for pos in range(1 << k):
            tts = np.array([TruthTable.create(rng.getrandbits(64),
                                              rng.randint(0, k)).bits
                            for _ in range(8)], np.uint64)
            at = np.full(len(tts), pos)
            assert _widen(tts, at, k).tolist() == _widen(tts, at).tolist(), \
                (k, pos)


class _RefPools:
    """Cut pools as the engine built them before leaf sets were masks:
    the product merge of the fanin cut sets over sorted tuples, member cuts
    pooled with the phase folded into the table and duplicates dropped, a
    naive dominance filter, and each cut's table derived from the source
    its node's latest pool took it from."""

    def __init__(self, net, k, classes):
        from mch.cuts import Cut, leaf_sig
        from mch.tt import TruthTable

        self.net, self.k, self.classes = net, k, classes
        self.cutsets = {0: [Cut((), 0, TruthTable.const(False))]}
        for n in net.pis:
            self.cutsets[n] = [Cut((n,), leaf_sig(n), TruthTable.var(0, 1))]
        self.combo_of, self.member_tt = {}, {}

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

        tt = self.member_tt[n].get(leaves)
        if tt is not None:
            return tt
        ins = [_ref_expand(c.tt, c.leaves, leaves)
               for c in self.combo_of[n][leaves]]
        ins = [~t if f.neg else t for f, t in zip(self.net.fanins(n), ins)]
        kind = self.net.kind(n)
        return (ins[0] & ins[1] if kind == nw.AND2
                else ins[0] ^ ins[1] if kind == nw.XOR2
                else maj_tt(*ins))


# the table word of a trivial cut
VAR0 = 0xAAAAAAAAAAAAAAAA


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


def _choice_network(rng, i):
    """A choice network with members of both phases (XMG or XAG mix),
    its engine classes and the cut size (4 or 6)."""
    from mch.choices import MchParams, build_mch
    from mch.strategies import default_library

    net = random_network(rng.randint(4, 6), rng.randint(15, 30),
                         rng.randint(0, 10**9), n_pos=2)
    cn = build_mch(net, default_library(), MchParams(r=0.8),
                   mix_target=(nw.XMG, nw.XAG)[i % 2])
    classes = {r: [(m, cn.phase[m]) for m in cn.members(r)]
               for r in cn.classes}
    return cn, classes, (4, 6)[i % 2]


def _engine(cn, classes, k):
    from mch.cuts import CutEngine

    return CutEngine(cn.base, k, classes, cn.order())


def test_engine_pools_with_members_match_reference():
    from mch.cuts import Cut, leaf_sig
    from mch.tt import TruthTable

    rng = random.Random(6)
    phases, from_members, changed, levels = set(), 0, 0, 0
    for i in range(6):
        cn, classes, k = _choice_network(rng, i)
        eng, ref = _engine(cn, classes, k), _RefPools(cn.base, k, classes)
        base = cn.base
        phases |= {ph for pairs in classes.values() for _, ph in pairs}
        # each round stores an arbitrary slice of every pool: all of it,
        # then the best 3, 2 and 4 under random keys, so the fanin and
        # member cut lists change from round to round and cuts an earlier
        # round dropped are stored again
        last: dict = {}
        for l in (None, 3, 2, 4):
            key, ref_key = _weight_key(rng, len(base))
            for lv in eng.round(key, l):
                levels += 1
                for n in lv.node_list:
                    keep = sorted(ref.pool(n), key=ref_key)[:l]
                    assert eng.cuts(n) == keep + [(n,)], n
                    assert eng.words(n) == [ref.table(n, c).bits
                                            for c in keep] + [VAR0], n
                    from_members += sum(c in ref.member_tt[n] for c in keep)
                    changed += last.get(n, keep) != keep
                    last[n] = keep
                    ref.cutsets[n] = [Cut(c, sig_of(c), ref.table(n, c))
                                      for c in keep] + [
                        Cut((n,), leaf_sig(n), TruthTable.var(0, 1))]
    assert phases == {False, True}
    assert from_members > 0 and changed > 0 and levels > 0


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
    # the member's cut {a, b} dominates the elementary merge {a, b, c},
    # which the cell mapper's round stores after the pool's cuts
    eng = CutEngine(net, 4, {rep.node: [(member.node, False)]},
                    [member.node, rep.node])
    elem = (a.node, b.node, c.node)
    for _ in eng.round(_structural_key, None, elem=True):
        pass
    assert eng.cuts(rep.node) == [(a.node, b.node), elem, (rep.node,)]
    assert eng.words(rep.node) == [
        cut_truth(net, member.node, [a.node, b.node]).bits,
        cut_truth(net, rep.node, list(elem)).bits, VAR0]


def test_a_member_with_only_its_trivial_cut_adds_nothing_to_the_pool():
    # at k=2 the MAJ3 member has no cut but its trivial one
    from mch.cuts import CutEngine
    from mch.tt import cut_truth

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
    assert empty == [member.node]
    assert eng.cuts(member.node) == [(member.node,)]
    assert eng.cuts(rep.node) == [(a.node, b.node), (rep.node,)]
    assert eng.words(rep.node) == [
        cut_truth(net, rep.node, [a.node, b.node]).bits, VAR0]


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
    for lv in eng.round(_structural_key, None):
        for n in lv.node_list:
            keep = sorted(ref.pool(n), key=lambda c: (len(c), c))
            assert eng.cuts(n) == keep + [(n,)]
            assert eng.words(n) == [ref.table(n, c).bits
                                    for c in keep] + [VAR0]
            ref.cutsets[n] = [Cut(c, 0, ref.table(n, c)) for c in keep] + [
                Cut((n,), leaf_sig(n), TruthTable.var(0, 1))]
    pool = eng.cuts(rep.node)[:-1]
    assert len({x for c in pool for x in c}) > 64
    assert len(pool) == 1 + 34 + 2


def test_pool_of_exactly_64_leaves():
    # 31 members over fresh PI pairs and the representative's own two
    # PIs: one mask word, whose top bit holds the last fanin leaf, and
    # merged cuts of 2 leaves at k=4
    from mch.cuts import CutEngine
    from mch.tt import cut_truth

    net = LogicNetwork(nw.AIG)
    pis = [net.add_pi() for _ in range(64)]
    rep = net.add_and(pis[62], ~pis[63])
    members = [(net.add_and(pis[2 * i], pis[2 * i + 1]).node, False)
               for i in range(31)]
    net.add_po(rep)
    eng = CutEngine(net, 4, {rep.node: members},
                    [m for m, _ in members] + [rep.node])
    for _ in eng.round(_structural_key, None):
        pass
    # with no limit every pool cut is stored
    pool = eng.cuts(rep.node)[:-1]
    assert len({x for c in pool for x in c}) == 64
    own = (pis[62].node, pis[63].node)
    assert eng.words(rep.node)[pool.index(own)] == \
        cut_truth(net, rep.node, list(own)).bits


def _two_source_cut():
    """A representative whose cut {y, b, c} comes from its own merge,
    y & b & c, while x stores {y, b}, and otherwise from the
    (deliberately different) member's cut, y | b | c.  Returns the
    network, a new engine over it, the leaves, a key under which x stores
    only {a, b, d} at l=1, and the nodes x, rep and member."""
    import numpy as np

    from mch.cuts import CutEngine

    net = LogicNetwork(nw.AIG)
    a, b, c, d = (net.add_pi() for _ in range(4))
    y = net.add_and(a, d)
    x = net.add_and(y, b)
    rep = net.add_and(x, c)
    t = net.add_or(y, c)
    member = net.add_or(t, b)
    net.add_po(rep)

    def engine():
        return CutEngine(net, 4, {rep.node: [(member.node, member.neg)]},
                         [y.node, x.node, t.node, member.node, rep.node])

    wa, wb = np.zeros(len(net) + 1, int), np.zeros(len(net) + 1, int)
    wa[[y.node, c.node, x.node, t.node]] = 5, 9, 9, 9
    wb[[y.node, a.node, d.node, x.node, t.node]] = 1, 1, 1, 9, 9

    def key(lv, size):
        return wa[lv].max(axis=1), wb[lv].sum(axis=1), size

    leaves = tuple(sorted((y.node, b.node, c.node)))
    return net, engine, leaves, key, (a, b, d, x, rep, member)


def test_a_cut_stored_again_from_another_source_takes_that_sources_table():
    from mch.tt import cut_truth

    net, engine, leaves, key, (a, b, d, x, rep, member) = _two_source_cut()
    eng = engine()
    for _ in eng.round(_structural_key, None):
        pass
    cuts = eng.cuts(rep.node)
    assert eng.words(rep.node)[cuts.index(leaves)] == \
        cut_truth(net, rep.node, list(leaves)).bits
    for _ in eng.round(key, 1):
        pass
    assert eng.cuts(x.node) == [(a.node, b.node, d.node), (x.node,)]
    assert eng.cuts(rep.node) == [leaves, (rep.node,)]
    # the member's function, its phase folded in
    tt = cut_truth(net, member.node, list(leaves))
    assert eng.words(rep.node)[0] == (~tt if member.neg else tt).bits
    assert eng.words(rep.node)[0] != \
        cut_truth(net, rep.node, list(leaves)).bits


def test_a_round_does_not_depend_on_earlier_rounds():
    # after a round A, a round B stores the lists and words of a new
    # engine that runs only B
    def stored(eng):
        return [(eng.cuts(n), eng.words(n)) for n in range(len(eng.net))]

    _, engine, _, key, _ = _two_source_cut()
    cases = [(engine, (_structural_key, None, False), (key, 1, False))]
    rng = random.Random(14)
    for i in range(3):
        cn, classes, k = _choice_network(rng, i)
        size = len(cn.base)
        cases.append(((lambda cn=cn, classes=classes, k=k:
                       _engine(cn, classes, k)),
                      (_weight_key(rng, size)[0], 3, False),
                      (_weight_key(rng, size)[0], 2, i == 1)))
    for engine, first, then in cases:
        eng, fresh = engine(), engine()
        for args in (first, then):
            for _ in eng.round(*args):
                pass
        for _ in fresh.round(*then):
            pass
        assert stored(eng) == stored(fresh)


def test_table_of_a_trivial_cut_and_of_the_constant():
    from mch.cuts import CutEngine

    net = random_network(4, 10, 3)
    eng = CutEngine(net, 4)
    for _ in eng.round(_structural_key, 2):
        pass
    for n in (*net.pis, *net.gates()):
        assert eng.cuts(n)[-1] == (n,)
        assert eng.words(n)[-1] == VAR0
    assert eng.cuts(0) == [()] and eng.words(0) == [0]


def test_a_level_lists_each_stored_cut_once_grouped_by_node():
    """A `Level` is one list: every column has a row per cut stored before
    the trivial ones, grouped by node in stored order, and a node's rows
    are its stored list.  The cell round (`elem`) appends elementary
    cuts, which the list must hold too."""
    import numpy as np
    from pathlib import Path

    from mch.aiger import read_aiger
    from mch.bench import PRESETS
    from mch.choices import MchParams, build_mch
    from mch.mapper import CELL, MapParams, _CellCover, _LutCover, \
        default_cell_library
    from mch.strategies import default_library

    bench = Path(__file__).resolve().parents[1] / "benchmarks"
    mix, r, _ = PRESETS["area"]
    lib, cl = default_library(), default_cell_library()
    for path in sorted(bench.glob("*.aag")):
        cn = build_mch(read_aiger(path), lib, MchParams(r=r), mix_target=mix)
        for m in (_LutCover(cn, MapParams(k=6)),
                  _CellCover(cn, cl, MapParams(k=6, target=CELL))):
            eng, levels = m.engine, []

            def spy(*args, real=m.engine.round, **kw):
                for lv in real(*args, **kw):
                    levels.append(lv)
                    yield lv

            eng.round = spy
            m.enum_round(True, False)
            assert levels, path.stem
            for lv in levels:
                rows = int(lv.count.sum())
                for col in (*lv.key, lv.owner, lv.leaves, lv.size, lv.tt):
                    assert len(col) == rows, path.stem
                assert np.all(lv.owner[1:] >= lv.owner[:-1])
                at = 0
                for j, (n, c) in enumerate(zip(lv.node_list,
                                               lv.count.tolist())):
                    assert np.all(lv.owner[at:at + c] == j)
                    assert [tuple(row[:z]) for row, z in zip(
                        lv.leaves[at:at + c].tolist(),
                        lv.size[at:at + c].tolist())] == eng.cuts(n)[:-1]
                    assert lv.tt[at:at + c].tolist() == eng.words(n)[:-1]
                    at += c


# a sha256 of every node's cut list, (node, [(leaves, sig, tt.bits,
# tt.var_count)...]) over the dict's order, recorded while enumerate_cuts
# still returned lists of Cut objects
BUNDLED_CUTS = {
    ("cavlc", 4, 8):
        "c66e574f55deae873f38a46f4676b8369f83251a0cd81b31e70488f543395044",
    ("cavlc", 6, None):
        "3268ec5929181e074a413bcdcd9fdc80674cc0ab7a1eb856d3f54a4c90f7f67e",
    ("ctrl", 4, 8):
        "d7545d1ea70483f6b800effef75fa5e643df1819c69e5c50437b6e126e12b569",
    ("ctrl", 6, None):
        "de558fe99ac808c75ca6990e24fc12c08e5b8587553b333a95c1809218f0fdea",
    ("dec", 4, 8):
        "6e56cfce5564e41e2a3b445eb1d1ae9f26a7959db7c453386e09c36f8b8846b0",
    ("dec", 6, None):
        "3861078cec5fc9dfc9bde8dd4a43eb03645298020f65789348697035a17a0d77",
    ("int2float", 4, 8):
        "0b180633a51c03810611b91222516b11e8831b4f59cb0ec16d910825c5217b92",
    ("int2float", 6, None):
        "1481ce75bf2cf6d24a8b265324dae9ccf2910768135e27d8f2992bfb0479022a",
    ("priority", 4, 8):
        "279a0f0fe793866d2c333fd21b354a91f15c90301b632e2375f11ac9588a1dd6",
    ("priority", 6, None):
        "687df41a25429c3a373f29ff037845c9bd03adf35620a6247a99994cf8cb73d3",
    ("router", 4, 8):
        "49b8941772ab2dcdb6ef7c5040bbea1b19cf9f07c87229545cab51236dcf74dc",
    ("router", 6, None):
        "1102f3a8cf19475714a42b8ee654c852bb344f71e5966ac63e5809627fc01c50",
}


@pytest.mark.parametrize("design, k, l", sorted(BUNDLED_CUTS,
                                                key=lambda p: p[:2]))
def test_each_cut_list_reads_like_the_list_it_was(design, k, l):
    """A node's value has the old list's length, indexes (also from the
    end) and iterates to the same Cuts, and compares equal to them."""
    root = Path(__file__).resolve().parents[1]
    net = read_aiger(root / "benchmarks" / f"{design}.aag")
    cutsets = enumerate_cuts(net, k, l)
    listed = []
    for n, cuts in cutsets.items():
        want = list(cuts)
        assert all(type(c) is Cut for c in want)
        assert len(cuts) == len(want) > 0
        assert [cuts[i] for i in range(len(cuts))] == want
        assert cuts[-1] == want[-1] and cuts[-len(want)] == want[0]
        assert cuts == want and want == cuts
        with pytest.raises(IndexError):
            cuts[len(want)]
        listed.append((n, [(c.leaves, c.sig, c.tt.bits, c.tt.var_count)
                           for c in want]))
    digest = hashlib.sha256(repr(listed).encode()).hexdigest()
    assert digest == BUNDLED_CUTS[design, k, l]
