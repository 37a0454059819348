import random

import pytest

from mch import network as nw
from mch.tt import TruthTable
from mch.npn import npn_canonize
from mch.strategies import default_library, save_db, load_db, \
    level_oriented_candidates, area_oriented_candidates, tree_eval, \
    tree_size, tree_depth


@pytest.fixture(scope="module")
def lib():
    return default_library()


def eval_candidate(cand, tt):
    """Replay a candidate over fresh PIs and compare against the query."""
    from mch.network import LogicNetwork
    from mch.choices import _replay
    net = LogicNetwork(cand.net.tag)
    leaves = tuple(net.add_pi() for _ in range(tt.var_count))
    net.add_po(_replay(net, cand, leaves))
    got = TruthTable.create(net.exhaustive_outputs()[0], tt.var_count)
    return got.bits == tt.bits and \
        cand.function(tt.var_count).bits == tt.bits


def test_db_covers_all_classes(lib):
    # every 4-var class answers a level-oriented query for some host
    missing = 0
    for bits in random.Random(1).sample(range(65536), 500):
        tt = TruthTable.create(bits, 4)
        cands = level_oriented_candidates(lib, tt, nw.XMG)
        if not cands:
            missing += 1
    assert missing == 0


def test_and4_template_optimal(lib):
    vs = [TruthTable.var(i, 4) for i in range(4)]
    tt = vs[0] & vs[1] & vs[2] & vs[3]
    cands = level_oriented_candidates(lib, tt, nw.AIG)
    best = min((c.depth, c.size) for c in cands)
    assert best == (2, 3)


def test_xor4_template_optimal(lib):
    vs = [TruthTable.var(i, 4) for i in range(4)]
    tt = vs[0] ^ vs[1] ^ vs[2] ^ vs[3]
    cands = level_oriented_candidates(lib, tt, nw.XAG)
    best = min((c.depth, c.size) for c in cands)
    assert best == (2, 3)


def test_maj3_template_sizes(lib):
    from mch.tt import maj_tt
    vs = [TruthTable.var(i, 3) for i in range(3)]
    tt = maj_tt(vs[0], vs[1], vs[2])
    with_maj = area_oriented_candidates(lib, tt, nw.MIG)
    assert min(c.size for c in with_maj) == 1
    aig_only = area_oriented_candidates(lib, tt, nw.AIG)
    assert min(c.size for c in aig_only) == 4


def test_level_candidates_evaluate_exactly(lib):
    rng = random.Random(21)
    for _ in range(300):
        tt = TruthTable.create(rng.getrandbits(16), 4)
        for cand in level_oriented_candidates(lib, tt, nw.XMG)[:3]:
            assert eval_candidate(cand, tt)


def test_area_candidates_evaluate_exactly(lib):
    rng = random.Random(22)
    for _ in range(150):
        tt = TruthTable.create(rng.getrandbits(32), 5)
        for cand in area_oriented_candidates(lib, tt, nw.XMG)[:3]:
            assert eval_candidate(cand, tt)


def test_level_sorted_depth_first(lib):
    rng = random.Random(23)
    for _ in range(50):
        tt = TruthTable.create(rng.getrandbits(16), 4)
        cands = level_oriented_candidates(lib, tt, nw.XMG)
        keys = [(c.depth, c.size) for c in cands]
        assert keys == sorted(keys)


def test_area_sorted_size_first(lib):
    rng = random.Random(24)
    for _ in range(50):
        tt = TruthTable.create(rng.getrandbits(16), 4)
        cands = area_oriented_candidates(lib, tt, nw.XMG)
        keys = [(c.size, c.depth) for c in cands]
        assert keys == sorted(keys)


def test_host_tag_restricts_kinds(lib):
    vs = [TruthTable.var(i, 4) for i in range(4)]
    tt = vs[0] ^ vs[1] ^ vs[2] ^ vs[3]
    for cand in level_oriented_candidates(lib, tt, nw.AIG):
        kinds = {cand.net.kind(g) for g in cand.net.gates()}
        assert kinds <= nw.ALLOWED_KINDS[nw.AIG]


def test_db_save_load_round_trip(lib, tmp_path):
    path = tmp_path / "npn4.db"
    save_db(lib, path)
    lib2 = load_db(path)
    t = TruthTable.create(0x1BE4, 4)
    a = [(c.strategy, c.size, c.depth)
         for c in level_oriented_candidates(lib, t, nw.XMG)]
    b = [(c.strategy, c.size, c.depth)
         for c in level_oriented_candidates(lib2, t, nw.XMG)]
    assert a == b
