"""Choice install runs each cached candidate's precompiled strash walk
(`Candidate.walk`, `LogicNetwork.images`).  The walk must rebuild exactly
what `LogicNetwork.insert`, and a gate-by-gate rebuild through `add`,
would; install must keep the same members as before candidates were made
distinct per query; and the table that proves a member, read from the
arena nodes its walk reached, must be `cut_truth`'s."""

import copy
import dataclasses
import random
import sys
from pathlib import Path

import pytest

from mch import choices
from mch import network as nw
from mch.aiger import read_aiger
from mch.bench import PRESETS
from mch.choices import MchParams, build_mch
from mch.network import LogicNetwork
from mch.strategies import default_library, load_db
from mch.tt import cut_truth

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


# every ChoiceStats field, (critical_nodes, other_nodes, generated, deduped,
# verified, failed, classes, members), of the bundled circuits and the
# seed-1 ladder nets.  The members of cavlc and ladder1000 were recorded
# before queries dropped repeated structures and before an MFFC over one
# of its root's cuts was skipped (both only ever removed inserts that
# strash folds); every field before construction read its candidates
# straight from the cut engine's rows.
STATS = {
    ("cavlc", "area"): (83, 14, 909, 405, 504, 0, 76, 504),
    ("cavlc", "delay"): (86, 11, 832, 438, 394, 0, 72, 394),
    ("ctrl", "area"): (9, 44, 309, 184, 125, 0, 37, 125),
    ("ctrl", "delay"): (53, 0, 218, 170, 48, 0, 22, 48),
    ("dec", "area"): (304, 0, 2192, 1072, 1120, 0, 256, 1120),
    ("dec", "delay"): (304, 0, 2192, 1072, 1120, 0, 256, 1120),
    ("int2float", "area"): (38, 24, 355, 197, 158, 0, 55, 158),
    ("int2float", "delay"): (59, 3, 265, 181, 84, 0, 55, 84),
    ("priority", "area"): (48, 6, 351, 168, 183, 0, 51, 183),
    ("priority", "delay"): (53, 1, 255, 154, 101, 0, 51, 101),
    ("router", "area"): (8, 2, 41, 20, 21, 0, 5, 21),
    ("router", "delay"): (10, 0, 35, 22, 13, 0, 3, 13),
    ("ladder1000", "area"): (173, 827, 8587, 5070, 3517, 0, 880, 3517),
    ("ladder1000", "delay"): (870, 130, 6359, 4089, 2270, 0, 813, 2270),
    ("ladder2000", "area"): (340, 1660, 17306, 10405, 6901, 0, 1776, 6901),
    ("ladder2000", "delay"): (1686, 314, 12935, 8422, 4513, 0, 1617, 4513),
}


@pytest.mark.parametrize("design, preset", sorted(STATS))
def test_install_keeps_the_same_members(tmp_path, design, preset):
    if design.startswith("ladder"):
        net = _ladder_net(tmp_path, int(design[len("ladder"):]), 1)
    else:
        net = read_aiger(ROOT / "benchmarks" / f"{design}.aag")
    s = _build(net, default_library(), preset).stats
    assert dataclasses.astuple(s) == STATS[design, preset]
    assert s.generated == s.deduped + s.verified + s.failed


def _designs(tmp_path):
    """The six bundled circuits and ladder1000 (seed 1), by name."""
    nets = {path.stem: read_aiger(path) for path in BUNDLED}
    nets["ladder1000"] = _ladder_net(tmp_path, 1000, 1)
    return nets


def test_the_one_pass_table_of_every_member_is_cut_truths(monkeypatch,
                                                          tmp_path):
    """Each image a walk reached gets, from the evaluator install calls
    on it (`LogicNetwork.evaluate`), the word that `cut_truth` gives it
    over the spec's leaves, and every installed member is one of those
    images."""
    real = LogicNetwork.evaluate
    arena, proven = {}, set()

    def checked(net, order, memo, ones):
        steps = arena.pop("steps", None)
        leaves = [n for n in memo if n]  # memo holds the leaves and node 0
        real(net, order, memo, ones)
        if order == steps:  # install's proof of the walk just run
            for n in order:
                if n and n not in leaves:
                    assert memo[n] == cut_truth(arena["net"], n, leaves).bits
                    proven.add(n)
        return memo

    def images(net, walk, leaves):
        arena["net"] = net
        vals = real_images(net, walk, leaves)
        arena["steps"] = [v >> 1 for v in vals[walk.inputs + 1:]]
        return vals

    real_images = LogicNetwork.images
    lib = default_library()
    for name, net in sorted(_designs(tmp_path).items()):
        for preset in ("area", "delay"):
            with monkeypatch.context() as m:
                m.setattr(LogicNetwork, "evaluate", checked)
                m.setattr(LogicNetwork, "images", images)
                proven.clear()
                cn = _build(net, lib, preset)
            assert cn.repr_of and proven >= set(cn.repr_of), (name, preset)


def test_a_member_the_arena_built_wrong_is_never_installed(monkeypatch):
    """With the strash core building XOR2 where install asks for AND2, a
    member's walk still means the spec's function, but its arena nodes do
    not: every such member fails its proof, and only members whose arena
    nodes compute the spec's function are installed."""
    real = choices.multi_strategy_choices

    def wrong_arena(net, *args):
        # the embedded network is built; only install's walks see the
        # wrong core
        core = net._strash_gate

        def xor_for_and(code, *fs):
            return core(nw.CODE[nw.XOR2] if code == nw.CODE[nw.AND2]
                        else code, *fs)

        net._strash_gate = xor_for_and
        try:
            return real(net, *args)
        finally:
            del net._strash_gate

    lib = default_library()
    for path in BUNDLED:
        net = read_aiger(path)
        good = _build(net, lib, "area").stats
        with monkeypatch.context() as m:
            m.setattr(choices, "multi_strategy_choices", wrong_arena)
            cn = _build(net, lib, "area")
        s = cn.stats
        assert s.failed > 0 and s.verified < good.verified, path.stem
        # every PI count here is at most 16: the check is exhaustive
        cn.check_invariants()
