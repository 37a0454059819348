import random

import pytest

from mch import network as nw
from mch.network import LogicNetwork
from mch.choices import ChoiceNetwork, MchParams, build_mch
from mch.mapper import MapParams, map_lut, map_cells, cover_check, \
    CellLibrary, LibraryError, MapError, default_cell_library, DELAY, AREA, \
    BALANCED, CELL
from mch.strategies import default_library
from mch.gen import random_network

from fixtures import parity8, adder3, parity10, DOMINANCE_FIXTURES


@pytest.fixture(scope="module")
def cl():
    return default_cell_library()


def wrap(net):
    return ChoiceNetwork(net.one_to_one_map(nw.AIG))


def test_single_and_maps_to_one_lut():
    net = LogicNetwork(nw.AIG)
    a, b = net.add_pi(), net.add_pi()
    net.add_po(net.add_and(a, b))
    m = map_lut(wrap(net), MapParams(k=4))
    assert m.stats["area"] == 1 and m.stats["delay"] == 1
    assert cover_check(m, net)


def test_lut_mapping_preserves_function():
    rng = random.Random(41)
    for _ in range(15):
        net = random_network(rng.randint(4, 8), rng.randint(10, 40),
                             rng.randint(0, 10**9),
                             n_pos=rng.randint(1, 3))
        for mode in (DELAY, AREA, BALANCED):
            m = map_lut(wrap(net), MapParams(k=4, mode=mode))
            assert cover_check(m, net)


def test_lut_k6_never_more_luts_than_k4():
    rng = random.Random(42)
    for _ in range(10):
        net = random_network(rng.randint(5, 8), rng.randint(15, 40),
                             rng.randint(0, 10**9))
        a4 = map_lut(wrap(net), MapParams(k=4, mode=AREA)).stats["area"]
        a6 = map_lut(wrap(net), MapParams(k=6, mode=AREA)).stats["area"]
        assert a6 <= a4


def test_delay_mode_no_slower_than_area_mode():
    rng = random.Random(43)
    for _ in range(10):
        net = random_network(rng.randint(5, 8), rng.randint(15, 40),
                             rng.randint(0, 10**9))
        d = map_lut(wrap(net), MapParams(k=4, mode=DELAY)).stats["delay"]
        a = map_lut(wrap(net), MapParams(k=4, mode=AREA)).stats["delay"]
        assert d <= a


def test_choices_never_hurt_lut_area(lib_choices=None):
    lib = default_library()
    for name, mk in DOMINANCE_FIXTURES:
        net = mk()
        base = map_lut(wrap(net), MapParams(k=4, l=64)).stats["area"]
        cn = build_mch(net, lib, MchParams(k=4, l=64))
        got = map_lut(cn, MapParams(k=4, l=64)).stats["area"]
        assert got <= base, name


def test_structural_pair_choice_mapping():
    from mch.choices import add_external_choices
    a, b = parity10(True), parity10(False)
    la = map_lut(wrap(a), MapParams(k=6)).stats["area"]
    lb = map_lut(wrap(b), MapParams(k=6)).stats["area"]
    assert la != lb
    cn = add_external_choices(wrap(a), b)
    lc = map_lut(cn, MapParams(k=6)).stats["area"]
    assert lc <= min(la, lb)


def test_cell_mapping_preserves_function(cl):
    rng = random.Random(44)
    for _ in range(10):
        net = random_network(rng.randint(4, 7), rng.randint(10, 30),
                             rng.randint(0, 10**9),
                             n_pos=rng.randint(1, 3))
        for mode in (DELAY, AREA, BALANCED):
            m = map_cells(wrap(net), cl,
                          MapParams(k=6, mode=mode, target=CELL))
            assert cover_check(m, net)


def test_cell_delay_mode_no_slower(cl):
    rng = random.Random(45)
    for _ in range(8):
        net = random_network(rng.randint(5, 7), rng.randint(15, 30),
                             rng.randint(0, 10**9))
        d = map_cells(wrap(net), cl,
                      MapParams(k=6, mode=DELAY, target=CELL)).stats["delay"]
        a = map_cells(wrap(net), cl,
                      MapParams(k=6, mode=AREA, target=CELL)).stats["delay"]
        assert d <= a + 1e-9


def test_cell_inverter_insertion(cl):
    # a bare inverted output forces either an inverter or a negated match
    net = LogicNetwork(nw.AIG)
    a, b = net.add_pi(), net.add_pi()
    net.add_po(~net.add_and(a, b))
    m = map_cells(wrap(net), cl, MapParams(target=CELL))
    assert cover_check(m, net)


def test_library_requires_inverter():
    text = "cell and2 1.0 8 2 1.0 1.0\n" \
           "cell zero 0.0 0 0\ncell one 0.0 1 0\n"
    with pytest.raises(LibraryError):
        CellLibrary.loads(text)


def test_a_library_without_gate_cells_names_the_first_unmatched_node():
    # no cut of the first AND has a match, nor has any level above it
    cl = CellLibrary.loads("cell inv 1.0 1 1 1.0\n"
                           "cell zero 0.0 0 0\ncell one 0.0 1 0\n")
    net = LogicNetwork(nw.AIG)
    a, b, c = net.add_pi(), net.add_pi(), net.add_pi()
    ab = net.add_and(a, b)
    net.add_po(net.add_and(ab, ~c))
    with pytest.raises(LibraryError, match=rf"node {ab.node}$"):
        map_cells(wrap(net), cl, MapParams(k=4, target=CELL))


def test_library_matches_both_phases(cl):
    from mch.tt import TruthTable
    a, b = TruthTable.var(0, 2), TruthTable.var(1, 2)
    hits = cl.matches(a & b)
    assert hits
    from mch.npn import apply_npn
    want = a & b
    for cell, t, phase in hits:
        # the physical cell omits t's output negation; phase records it
        physical = apply_npn(cell.tt, t._replace(out_neg=False))
        assert physical == (~want if phase else want)


def test_a_query_wider_than_every_cell_is_not_canonized(monkeypatch):
    from mch import mapper
    from mch.tt import TruthTable

    cl = default_cell_library()       # canonizes its own cells
    calls = []
    canonize = mapper.npn_canonize
    monkeypatch.setattr(mapper, "npn_canonize",
                        lambda tt: calls.append(tt) or canonize(tt))
    xs = [TruthTable.var(i, 5) for i in range(5)]
    # no tiny.lib cell has more than three inputs
    assert cl.matches(xs[0] & xs[1] & xs[2] & xs[3] & xs[4]) == []
    assert calls == []


def test_mapped_netlist_simulate(cl):
    net = adder3()
    m = map_cells(wrap(net), cl, MapParams(target=CELL))
    pats = nw.exhaustive_patterns(net.pis)
    width = 1 << len(net.pis)
    pi_words = [pats[p] for p in net.pis]
    got = m.simulate(pi_words, width)
    assert got == net.exhaustive_outputs()


# (area, delay) recorded before LUT and cell mapping shared one cut engine
# and one round driver: build_mch at r=0.8 into XMG, LUTs at k=6, cells at
# the default k=4 with four rounds
PINNED_QOR = {
    "int2float": {
        "lut": {AREA: (13.0, 2.0), BALANCED: (14.0, 2.0), DELAY: (14.0, 2.0)},
        "cell": {AREA: (118.0, 9.0), BALANCED: (132.0, 6.800000000000001),
                 DELAY: (148.0, 6.800000000000001)},
    },
    "priority": {
        "lut": {AREA: (15.0, 4.0), BALANCED: (16.0, 3.0), DELAY: (16.0, 3.0)},
        "cell": {AREA: (108.0, 15.000000000000002),
                 BALANCED: (129.0, 8.799999999999999),
                 DELAY: (129.0, 8.799999999999999)},
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_QOR))
def test_pinned_qor_on_bundled_circuits(name, cl):
    import os

    from mch.aiger import read_aiger

    path = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                        f"{name}.aag")
    net = read_aiger(path)
    cn = build_mch(net, default_library(), MchParams(r=0.8),
                   mix_target=nw.XMG)
    for mode in (AREA, BALANCED, DELAY):
        m = map_lut(cn, MapParams(k=6, mode=mode))
        assert (m.stats["area"], m.stats["delay"]) == \
            PINNED_QOR[name]["lut"][mode]
        m = map_cells(cn, cl, MapParams(k=4, mode=mode, target=CELL))
        assert (m.stats["area"], m.stats["delay"]) == \
            PINNED_QOR[name]["cell"][mode]


# sha256 of repr((outputs, [tuple(instance) ...])) of whole netlists, so a
# changed cover with equal area and delay is caught too.  Recorded before
# cut leaf sets became pool-local masks, at the benchmark presets: XMG r=0.8
# in AREA mode and XAG r=0.5 in DELAY mode, LUTs and cells at k=6, cells
# with three rounds
PINNED_NETLISTS = {
    ("int2float", "xmg", "lut"):
        "a995cf5778939929f0c95d7400f6d9a2aa6a41a89d9bb88bbdb6de378ec4da6b",
    ("int2float", "xmg", "cell"):
        "4a10c1c44dc5cefab8fa3844334d6d94ebbd74053c1ab92fa8fcb8ff3c767032",
    ("int2float", "xag", "lut"):
        "41b05d6df8cff48478d7240b633741e0f2d64a2ab801478b70d14c57f03e446c",
    ("int2float", "xag", "cell"):
        "1a01ab458baa7ea4e1bf752be1ebf3ff3328d4d9d5024649944cda57aea40511",
    ("priority", "xmg", "lut"):
        "9cf50ca5963e129023e0fa4071def618da90555e096f29da590d48beb05795fe",
    ("priority", "xmg", "cell"):
        "a8f55b556e95ea8b9188c2f086d3c3175160b32839bdb6ad19618188fb006a16",
    ("priority", "xag", "lut"):
        "d225e5385a05e4a6b682ec7534145b3dfe288da45afc90775268c13e27bc30c5",
    ("priority", "xag", "cell"):
        "6fe53c839b1f003339faeb75d24c5fc0cd05358db4ab9a820d57996aae00bb16",
}


@pytest.mark.parametrize("name", ["int2float", "priority"])
def test_pinned_netlists_on_bundled_circuits(name, cl):
    import hashlib
    import os

    from mch.aiger import read_aiger

    path = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                        f"{name}.aag")
    net = read_aiger(path)
    presets = {"xmg": (nw.XMG, 0.8, AREA), "xag": (nw.XAG, 0.5, DELAY)}
    for preset, (mix, r, mode) in presets.items():
        cn = build_mch(net, default_library(), MchParams(r=r),
                       mix_target=mix)
        got = {"lut": map_lut(cn, MapParams(k=6, mode=mode)),
               "cell": map_cells(cn, cl, MapParams(k=6, mode=mode, rounds=3,
                                                   target=CELL))}
        for target, m in got.items():
            digest = hashlib.sha256(repr((m.outputs, [
                tuple(i) for i in m.instances])).encode()).hexdigest()
            assert digest == PINNED_NETLISTS[(name, preset, target)], \
                (preset, target)


def test_deep_table_derivation_does_not_recurse():
    # at k=4 the cut of every AND over the three PIs merges the same cut
    # of the AND below it, so the one LUT's table derives through the
    # whole chain
    import sys

    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(3)]
    s = net.add_and(xs[0], xs[1])
    for i in range(1500):
        s = net.add_and(s, xs[i % 3].with_neg(i % 2 == 0))
    net.add_po(s)
    assert net.num_gates() > sys.getrecursionlimit()
    m = map_lut(wrap(net), MapParams(k=4))
    assert m.stats["area"] == 1
    assert cover_check(m, net)


def _and_chain(n_ands: int) -> LogicNetwork:
    # four PIs in turn, so at k=2 every cut above a level has three leaves
    # and each LUT or cell covers one AND
    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(4)]
    s = net.add_and(xs[0], xs[1])
    for i in range(n_ands - 1):
        s = net.add_and(s, xs[(i + 2) % 4].with_neg(i % 3 == 0))
    net.add_po(s)
    return net


def test_exact_area_round_maps_a_cover_deeper_than_the_recursion_limit(cl):
    import sys

    net = _and_chain(1100)
    assert net.num_gates() > sys.getrecursionlimit()
    m = map_lut(wrap(net), MapParams(k=2, rounds=4))
    assert (m.stats["area"], m.stats["delay"]) == (1100.0, 1100.0)
    assert cover_check(m, net)
    m = map_cells(wrap(net), cl, MapParams(k=2, rounds=3, target=CELL))
    assert cover_check(m, net)


@pytest.mark.parametrize("target", ["lut", CELL])
def test_k_below_maj3_arity_names_the_node(target, cl):
    net = random_network(5, 20, 3, tag=nw.MIG)
    cn = ChoiceNetwork(net)
    with pytest.raises(MapError, match=r"node \d+: k=2 is below the "
                                       r"arity 3 of its maj3 gate") as exc:
        if target == CELL:
            map_cells(cn, cl, MapParams(k=2, target=CELL))
        else:
            map_lut(cn, MapParams(k=2))
    assert not isinstance(exc.value, LibraryError)


# -- reference: the node-by-node cell pick ------------------------------


def _ref_matches(cl, leaves, tt):
    """(kind, cell, pins) matches per phase of one cut, in the order a
    node's match list takes them."""
    from mch.tt import TruthTable

    out = [[], []]
    tt_s, sup = tt.shrink_to_support()
    v = len(sup)
    if v == 0:
        one = 1 if tt_s.is_const1() else 0
        out[0].append(("wire", None, (one,)))
        out[1].append(("wire", None, (1 - one,)))
        return out
    sub = [leaves[i] for i in sup]
    if v == 1:
        flip = 1 if tt_s == ~TruthTable.var(0, 1) else 0
        for phase in (0, 1):
            out[phase].append(("wire", None, (2 * sub[0] + (phase ^ flip),)))
        return out
    for cell, t, neg in cl.matches(tt_s):
        pins = tuple(2 * sub[t.perm[i]] + ((t.neg >> i) & 1)
                     for i in range(v))
        out[1 if neg else 0].append(("cell", cell, pins))
    return out


def _ref_cell_round(m, arr, flow, delay_pri, constrained, seen):
    """One cell round's picks, node by node in dependency order, over the
    cut lists the engine stored: per phase the first best match meeting
    the required time (else the first best), a missing or costlier phase
    through an inverter.  Updates arr and flow; returns each key's choice
    and alternatives."""
    from mch.mapper import _EPS
    from mch.tt import TruthTable

    inv = m.cl.inv
    invd = max(inv.pin_delays)
    chosen, alts = {}, {}

    def cost(match):
        _, cell, pins = match
        ds = [0.0] * len(pins) if cell is None else cell.pin_delays
        return (max(arr[k] + d for k, d in zip(pins, ds)),
                (0.0 if cell is None else cell.area)
                + sum(flow[k] / m.est[k] for k in pins))

    for n in m.order:
        per_phase = [[], []]
        for lvs, word in zip(m.engine.cuts(n)[:-1], m.engine.words(n)):
            pm = _ref_matches(m.cl, lvs, TruthTable(word, len(lvs)))
            per_phase[0] += pm[0]
            per_phase[1] += pm[1]
        picked = [None, None]
        for phase in (0, 1):
            opts = [cost(x) + (x,) for x in per_phase[phase]]
            feasible = [o for o in opts if not constrained
                        or o[0] <= m.req[2 * n + phase] + _EPS]
            seen["dropped"] += len(opts) - len(feasible)
            if feasible or opts:
                picked[phase] = min(feasible or opts,
                                    key=lambda o: o[:2] if delay_pri
                                    else (o[1], o[0]))
        assert picked != [None, None], n
        invs = [None, None]
        for phase in (0, 1):
            other = picked[1 - phase]
            if other is None:
                continue
            a, f = other[0] + invd, inv.area + other[1]
            cur = picked[phase]
            if cur is None or ((a, f) < cur[:2] if delay_pri
                               else (f, a) < (cur[1], cur[0])):
                invs[phase] = (a, f, ("inv", inv, (2 * n + 1 - phase,)))
                seen["inverters"] += 1
        for phase in (0, 1):
            key = 2 * n + phase
            arr[key], flow[key], chosen[key] = invs[phase] or picked[phase]
            alts[key] = per_phase[phase] + [("inv", inv, (key ^ 1,))]
    return chosen, alts


def test_cell_round_matches_reference_picks(cl):
    from mch.mapper import _CellCover

    seen = {"rounds": 0, "constrained": 0, "dropped": 0, "inverters": 0}

    class Checked(_CellCover):
        def enum_round(self, delay_pri, constrained):
            arr, flow = self.arr[:], self.flow[:]
            super().enum_round(delay_pri, constrained)
            chosen, alts = _ref_cell_round(self, arr, flow, delay_pri,
                                           constrained, seen)
            seen["rounds"] += 1
            seen["constrained"] += constrained
            for key, want in chosen.items():
                got = self.chosen[key]
                assert (got.kind, got.cell, got.pins) == want, key
                assert (self.arr[key], self.flow[key]) == \
                    (arr[key], flow[key]), key
                two_invs = self.chosen[key ^ 1].kind == "inv"
                assert [(c.kind, c.cell, c.pins)
                        for c in self.cands(key)] == [
                    x for x in alts[key]
                    if not (two_invs and x[0] == "inv")], key

    rng = random.Random(12)
    for i in range(6):
        net = random_network(rng.randint(4, 6), rng.randint(15, 30),
                             rng.randint(0, 10**9), n_pos=2)
        cn = build_mch(net, default_library(), MchParams(r=0.8),
                       mix_target=(nw.XMG, nw.XAG)[i % 2])
        for mode in (DELAY, AREA, BALANCED):
            p = MapParams(k=(4, 6)[i % 2], mode=mode, rounds=3, target=CELL)
            Checked(cn, cl, p).run()
    assert seen["rounds"] == 6 * 3 * 2 and seen["constrained"] == 6 * 3
    assert seen["dropped"] > 0 and seen["inverters"] > 0


@pytest.mark.parametrize("target", ["lut", CELL])
def test_exact_round_old_choices_meet_their_required_times(target, cl):
    """exact_round compares a key's old choice by value, so the old choice
    must meet the key's required time, also after a rolled-back round."""
    from mch.mapper import _EPS, _CellCover, _LutCover

    seen = {"keys": 0, "after_rollback": 0}

    class Checked(_CellCover if target == CELL else _LutCover):
        fresh = rolled_back = False

        def enum_round(self, delay_pri, constrained):
            super().enum_round(delay_pri, constrained)
            self.fresh = True

        def cover(self):
            # run() covers again after a round only to roll it back
            self.rolled_back |= not self.fresh
            self.fresh = False
            return super().cover()

        def exact_round(self, refs, delay_pri):
            seen["after_rollback"] += self.rolled_back
            super().exact_round(refs, delay_pri)
            self.fresh = True

        def cands(self, key):
            # asked once per key exact_round visits, before it re-picks
            assert self.arrival(self.chosen[key]) <= self.req[key] + _EPS, key
            seen["keys"] += 1
            return super().cands(key)

    # four outputs and small cuts: some area-flow round makes the cover
    # worse, so run() rolls it back before the exact round of rounds=4
    rng = random.Random(23)
    for i in range(6):
        net = random_network(rng.randint(5, 8), rng.randint(40, 60),
                             rng.randint(0, 10**9), n_pos=4)
        cn = build_mch(net, default_library(), MchParams(r=0.8),
                       mix_target=(nw.XMG, nw.XAG)[i % 2])
        for mode in (DELAY, AREA, BALANCED):
            for rounds in (3, 4):
                p = MapParams(k=(3, 4)[i % 2], mode=mode, rounds=rounds,
                              target=target)
                (Checked(cn, cl, p) if target == CELL
                 else Checked(cn, p)).run()
    assert seen["keys"] > 0 and seen["after_rollback"] > 0, seen


def test_a_lut_cover_restored_by_rollback_carries_its_tables(monkeypatch):
    """A rolled-back round restores the picks of an earlier round, whose
    cuts the engine's current lists need not hold: each pick carries the
    table word its round derived."""
    import numpy as np

    from mch import mapper
    from mch.verify import EQUIVALENT

    def deep_first(leaves, size):
        # cuts whose lowest leaf is highest first; a superset's lowest
        # leaf is no higher, so it sorts after its subsets
        return -np.where(leaves < 0, 1 << 30, leaves).min(axis=1), size

    seen = {"rollbacks": 0, "stale": 0}

    class Checked(mapper._LutCover):
        enumerated = 0

        def enum_round(self, delay_pri, constrained):
            super().enum_round(delay_pri, constrained)
            self.enumerated += 1

        def cover(self):
            refs, area, delay = super().cover()
            if self.enumerated == 2:
                # report the area-flow round's cover as worse, once, and
                # leave the engine holding other lists than the restored
                # cover's
                self.enumerated += 1
                seen["rollbacks"] += 1
                for _ in self.engine.round(deep_first, 1):
                    pass
                return refs, area + 1, delay
            return refs, area, delay

        def run(self):
            out = super().run()
            eng = self.engine
            seen["stale"] += sum(
                self.chosen[n] not in zip(eng.cuts(n), eng.words(n))
                for n in self.walk(self.roots, set()))
            return out

    monkeypatch.setattr(mapper, "_LutCover", Checked)
    rng = random.Random(41)
    for i in range(4):
        net = random_network(rng.randint(5, 8), rng.randint(30, 50),
                             rng.randint(0, 10**9), n_pos=3)
        cn = build_mch(net, default_library(), MchParams(r=0.8),
                       mix_target=(nw.XMG, nw.XAG)[i % 2])
        for mode in (DELAY, AREA):
            for rounds in (2, 3):
                m = map_lut(cn, MapParams(k=4, mode=mode, rounds=rounds))
                assert cover_check(m, net).status == EQUIVALENT
    assert seen["rollbacks"] == 16 and seen["stale"] > 0, seen


def _ref_dep_order(cn):
    """The dependency DFS over dicts and LogicNetwork queries that
    `_dep_order` must reproduce exactly: `exact_round` visits keys in
    its order."""
    net = cn.base
    state, order = {}, []
    for start in net.gates():
        if state.get(start) == 2:
            continue
        stack = [start]
        while stack:
            n = stack[-1]
            if state.get(n) == 2 or not net.is_gate(n):
                stack.pop()
                continue
            deps = [f.node for f in net.fanins(n)] + cn.members(n)
            pend = [d for d in deps if net.is_gate(d) and state.get(d) != 2]
            if pend:
                state[n] = 1
                stack.extend(pend)
                continue
            stack.pop()
            state[n] = 2
            order.append(n)
    return order


def test_dependency_order_matches_the_reference_dfs():
    from mch.mapper import _dep_order

    rng = random.Random(31)
    for i in range(6):
        net = random_network(rng.randint(5, 8), rng.randint(30, 60),
                             rng.randint(0, 10**9), n_pos=2)
        cn = build_mch(net, default_library(), MchParams(r=0.8),
                       mix_target=(nw.XMG, nw.XAG, nw.AIG)[i % 3])
        assert cn.classes
        assert _dep_order(cn) == _ref_dep_order(cn)
