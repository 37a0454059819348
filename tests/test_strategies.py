import random
from pathlib import Path

import pytest

from mch import network as nw
from mch.tt import TruthTable
from mch.strategies import build_npn4_db, default_library, save_db, \
    load_db, level_oriented_candidates, area_oriented_candidates

from fixtures import candidate_function, candidate_network

DB_PATH = Path(__file__).resolve().parents[1] / "src" / "mch" / "data" / \
    "npn4.db"


@pytest.fixture(scope="module")
def lib():
    return default_library()


def eval_candidate(cand, tt):
    """Run a candidate over fresh PIs and compare against the query."""
    got = TruthTable.create(candidate_function(cand, tt.var_count),
                            tt.var_count)
    return got.bits == tt.bits


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
        net = candidate_network(cand)
        kinds = {net.kind(g) for g in net.gates()}
        assert kinds <= nw.ALLOWED_KINDS[nw.AIG]


def _fingerprint(cands):
    return [(c.strategy, c.size, c.depth) + _structure(c) for c in cands]


def test_db_save_load_round_trip(lib, tmp_path):
    # a saved database loads to the same level candidates, structure
    # included, for every class and host
    path = tmp_path / "npn4.db"
    save_db(lib, path)
    lib2 = load_db(path)
    for rep in lib.classes(nw.XMG):
        t = TruthTable.create(rep, 4)
        for host in (nw.AIG, nw.XAG, nw.MIG, nw.XMG):
            assert _fingerprint(level_oriented_candidates(lib, t, host)) == \
                _fingerprint(level_oriented_candidates(lib2, t, host))


def test_every_db_line_is_a_checked_template_network():
    lines = DB_PATH.read_text().splitlines()[1:]
    lib = load_db(DB_PATH)
    seen = {}
    for line in lines:
        hexrep, tag, depth, size, text = line.split(" ", 4)
        rep = int(hexrep, 16)
        i = seen[tag, rep] = seen.get((tag, rep), -1) + 1
        tpl = lib.templates_for(tag, rep)[i]
        assert len(tpl.pis) == 4 and len(tpl.outputs) == 1
        assert tpl.exhaustive_outputs()[0] == rep
        assert tpl.compute_levels().network_level == int(depth)
        gate_tokens = text.count("(") - text.count("buf(")
        assert gate_tokens == int(size)
        # strash may merge a repeated gate, never add one
        assert tpl.num_gates() <= gate_tokens
    assert len(lines) == 888
    assert sum(len(lib.templates_for(t, r)) for t, r in seen) == 888


def test_the_generator_reproduces_the_bundled_aig_and_xag_templates(lib):
    built = build_npn4_db((nw.AIG, nw.XAG))

    def shapes(db, tag, rep):
        return [([(t.kind(n), t.fanins(n)) for n in range(len(t))],
                 t.outputs) for t in db.templates_for(tag, rep)]

    for tag in (nw.AIG, nw.XAG):
        assert built.classes(tag) == lib.classes(tag)
        for rep in built.classes(tag):
            assert shapes(built, tag, rep) == shapes(lib, tag, rep), \
                (tag, hex(rep))


def test_a_missing_bundled_database_is_an_error_naming_it(tmp_path,
                                                          monkeypatch):
    import re

    from mch import strategies

    missing = tmp_path / "npn4.db"
    monkeypatch.setattr(strategies, "DB_PATH", missing)
    monkeypatch.setattr(strategies, "_default_lib", None)
    with pytest.raises(OSError, match=re.escape(str(missing))):
        default_library()
    assert not missing.exists()


@pytest.mark.parametrize("field, value, message", [
    (2, "3", "depth"), (3, "4", "size"),
    (4, "and2(t3,t2),and2(t1,t0),and2(g0,g1)", "realize")])
def test_bad_db_line_fails_on_first_query(tmp_path, field, value, message):
    parts = "0x0001 aig 2 3 and2(!t3,!t2),and2(!t1,!t0),and2(g0,g1)".split()
    parts[field] = value
    path = tmp_path / "bad.db"
    path.write_text("npn4-db v1\n" + " ".join(parts) + "\n")
    lib = load_db(path)     # lines are only split on load
    with pytest.raises(ValueError, match=f"bad.db:2.*{message}"):
        lib.templates_for(nw.AIG, 0x0001)


def _structure(cand):
    net = candidate_network(cand)
    return (tuple((net.kind(n), net.fanins(n)) for n in range(len(net))),
            tuple(net.outputs), cand.support)


def _assert_distinct_and_sorted(cands, order):
    assert [order(c) for c in cands] == sorted(order(c) for c in cands)
    structures = [_structure(c) for c in cands]
    assert len(set(structures)) == len(structures)


def test_query_results_are_structurally_distinct(lib):
    # the NPN4 templates of a class often come out identical from several
    # databases, and ISOP factoring and DSD lowering often agree; a query
    # keeps the first of each structure in its order
    hosts = (nw.AIG, nw.XAG, nw.MIG, nw.XMG)
    for rep in lib.classes(nw.XMG):
        tt = TruthTable.create(rep, 4)
        for host in hosts:
            _assert_distinct_and_sorted(
                level_oriented_candidates(lib, tt, host),
                lambda c: (c.depth, c.size, c.strategy))
    rng = random.Random(13)
    for i in range(200):
        v = (4, 6)[i % 2]
        tt = TruthTable.create(rng.getrandbits(1 << v), v)
        for host in hosts:
            _assert_distinct_and_sorted(
                area_oriented_candidates(lib, tt, host),
                lambda c: (c.size, c.depth, c.strategy))
