"""Choice install runs each cached candidate's precompiled strash walk
(`Candidate.walk`, `LogicNetwork.run`).  The walk must rebuild exactly what
`LogicNetwork.insert`, and a gate-by-gate rebuild through `add`, would;
and install must keep the same members as before candidates were made
distinct per query."""

import copy
import random
import sys
from pathlib import Path

import pytest

from mch.aiger import read_aiger
from mch.bench import PRESETS
from mch.choices import MchParams, build_mch
from mch.strategies import default_library, load_db

from fixtures import candidate_network

ROOT = Path(__file__).resolve().parents[1]
DB_PATH = ROOT / "src" / "mch" / "data" / "npn4.db"
BUNDLED = sorted((ROOT / "benchmarks").glob("*.aag"))


def _build(net, lib, preset):
    mix, r, _ = PRESETS[preset]
    return build_mch(net, lib, MchParams(r=r), mix_target=mix)


def _appended(net, before):
    return [(net.kind(n), net.fanins(n)) for n in range(before, len(net))]


def _rebuild_by_add(net, src, leaves):
    """src's gates rebuilt one `add` at a time, in ascending id order."""
    img = {0: (0, False), **dict(zip(src.pis, leaves))}
    for g in src.gates():
        img[g] = net.add(src.kind(g), [(img[f.node][0], img[f.node][1] ^ f.neg)
                                       for f in src.fanins(g)])
    return [(img[s.node][0], img[s.node][1] ^ s.neg) for s in src.outputs]


def test_compiled_walk_rebuilds_what_insert_does():
    lib = load_db(DB_PATH)
    arenas = {}
    for path in BUNDLED:
        for preset in ("area", "delay"):
            arena = _build(read_aiger(path), lib, preset).base
            arenas.setdefault(arena.tag, arena)
    cands = [c for query in lib.query_cache.values() for c in query]
    assert {c.walk.tag for c in cands} == arenas.keys()
    rng = random.Random(5)
    for tag, arena in arenas.items():
        walked, inserted, added = (copy.deepcopy(arena) for _ in range(3))
        for cand in cands:
            if cand.walk.tag != tag:
                continue
            src = candidate_network(cand)
            # half the leaves come from the constant and the first PIs, so
            # that repeats, constants and existing gates fold in strash
            leaves = [(rng.randrange(6) if rng.random() < 0.5
                       else rng.randrange(len(walked)), rng.random() < 0.5)
                      for _ in cand.support]
            before = len(walked)
            got = walked.run(cand.walk, leaves)
            assert got == inserted.insert(src, leaves)
            assert got == _rebuild_by_add(added, src, leaves)
            assert _appended(walked, before) == _appended(inserted, before) \
                == _appended(added, before)
        assert len(walked) > len(arena)


def _ladder_net(tmp_path, size, seed):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import ladder
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    path = tmp_path / f"ladder-{size}.aag"
    path.write_text(ladder.random_aig(size, seed))
    return read_aiger(path)


# (verified, failed, classes, members), recorded before queries dropped
# repeated structures and before an MFFC over one of its root's cuts was
# skipped: both only ever removed inserts that strash folds
STATS = {
    ("cavlc", "area"): (504, 0, 76, 504),
    ("cavlc", "delay"): (394, 0, 72, 394),
    ("ladder1000", "area"): (3517, 0, 880, 3517),
    ("ladder1000", "delay"): (2270, 0, 813, 2270),
}


@pytest.mark.parametrize("design, preset", sorted(STATS))
def test_install_keeps_the_same_members(tmp_path, design, preset):
    net = (read_aiger(ROOT / "benchmarks" / "cavlc.aag") if design == "cavlc"
           else _ladder_net(tmp_path, 1000, 1))
    s = _build(net, default_library(), preset).stats
    assert (s.verified, s.failed, s.classes, s.members) == \
        STATS[design, preset]
    assert s.generated == s.deduped + s.verified + s.failed
