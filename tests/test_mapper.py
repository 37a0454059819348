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


def test_expand_cache_stays_smaller_than_the_network():
    # tables are expanded by leaf position, so the cache does not grow
    # with the number of nodes mapped
    from mch import cuts

    net = random_network(16, 1000, 1)
    cuts._EXPAND.clear()
    map_lut(wrap(net), MapParams(k=4))
    assert len(cuts._EXPAND) < net.num_gates()


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
