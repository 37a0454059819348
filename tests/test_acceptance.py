"""End-to-end acceptance gate.

Each test is one pass/fail line covering a black-box guarantee: function
preservation across every pipeline, oracle agreement for cut enumeration
and NPN classification, exactness of strategy candidates, choice
dominance, mapping-mode consistency, rewrite escape from structural
fixpoints, and file-format round-trips.  Time budgets are asserted, not
just observed.
"""

import random
import time

import pytest

from mch import network as nw
from mch.network import exhaustive_patterns
from mch.aiger import read_aiger, write_aiger
from mch.blif import read_blif, write_blif
from mch.choices import ChoiceNetwork, MchParams, add_external_choices, \
    build_mch
from mch.cuts import all_cuts_bruteforce, enumerate_cuts
from mch.graphmap import graph_map, network_metrics, \
    optimize_iterate
from mch.mapper import AREA, BALANCED, CELL, DELAY, MapParams, cover_check, \
    default_cell_library, map_cells, map_lut
from mch.npn import npn_canonize, npn_classify_all4
from mch.strategies import area_oriented_candidates, default_library, \
    level_oriented_candidates
from mch.tt import TruthTable
from mch.gen import random_network
from mch.verify import EQUIVALENT, cec

from fixtures import DOMINANCE_FIXTURES, ESCAPE_FIXTURES, parity10, \
    candidate_function

BENCH_DIR = __file__.rsplit("/", 2)[0] + "/benchmarks"


@pytest.fixture(scope="module")
def lib():
    return default_library()


@pytest.fixture(scope="module")
def cl():
    return default_cell_library()


def test_criterion_1_equivalence_suite(lib, cl):
    """Every pipeline preserves function on 50 networks, exhaustively."""
    t0 = time.perf_counter()
    rng = random.Random(101)
    nets = [random_network(rng.randint(4, 12), rng.randint(8, 35),
                           rng.randint(0, 10**9),
                           n_pos=rng.randint(1, 3))
            for _ in range(50)]
    for i, net in enumerate(nets):
        ref = net.exhaustive_outputs()
        # embedding into every representation
        for target in (nw.AIG, nw.XAG, nw.MIG, nw.XMG):
            assert net.one_to_one_map(target).exhaustive_outputs() == ref
        # choice-network construction
        cn = build_mch(net, lib, MchParams())
        assert cec(net, cn.base).status == EQUIVALENT
        # LUT and cell mapping over the choice network
        assert cover_check(map_lut(cn, MapParams(k=4)), net)
        assert cover_check(
            map_cells(cn, cl, MapParams(target=CELL, rounds=3)), net)
        # graph mapping and the iterated optimization loop
        out = graph_map(cn, nw.XMG, MapParams(), lib)
        assert cec(net, out).status == EQUIVALENT
        if i < 10:
            opt, _ = optimize_iterate(net, nw.XMG, lib=lib)
            assert cec(net, opt).status == EQUIVALENT
    assert time.perf_counter() - t0 < 60.0


def test_criterion_2_cut_enumeration_oracle():
    """Enumerated cuts equal brute-force dominance-filtered cuts."""
    t0 = time.perf_counter()
    rng = random.Random(102)
    for _ in range(100):
        net = random_network(rng.randint(3, 6), rng.randint(4, 24),
                             rng.randint(0, 10**9))
        k = rng.randint(2, 4)
        cutsets = enumerate_cuts(net, k, None)
        for g in net.gates():
            got = sorted(tuple(lv) for lv, _ in cutsets[g].tables())
            want = sorted(all_cuts_bruteforce(net, g, k))
            assert got == want
    assert time.perf_counter() - t0 < 30.0


def test_criterion_3_npn_kernel():
    """All 65,536 4-var functions fall into 222 classes, idempotently."""
    t0 = time.perf_counter()
    classes = npn_classify_all4()
    reps = sorted(set(int(c) for c in classes))
    assert len(reps) == 222
    # idempotence: every canonical representative canonizes to itself,
    # and spot functions canonize into the class table
    for r in reps:
        res = npn_canonize(TruthTable.create(r, 4))
        assert res.tt.bits == TruthTable.create(r, 4).bits
    rng = random.Random(103)
    for bits in rng.sample(range(65536), 2000):
        res = npn_canonize(TruthTable.create(bits, 4))
        span_bits = res.tt.bits & 0xFFFF
        assert span_bits == int(classes[bits])
        again = npn_canonize(res.tt)
        assert again.tt.bits == res.tt.bits
    assert time.perf_counter() - t0 < 10.0


def _candidate_function(cand, var_count: int) -> TruthTable:
    """Truth table of a candidate run over var_count fresh inputs."""
    return TruthTable.create(candidate_function(cand, var_count), var_count)


def test_criterion_4_strategy_soundness(lib):
    """20,000 candidate queries all evaluate exactly to their target."""
    rng = random.Random(104)
    for _ in range(10000):
        tt = TruthTable.create(rng.getrandbits(16), 4)
        for cand in level_oriented_candidates(lib, tt, nw.XMG):
            assert _candidate_function(cand, 4).bits == tt.bits
    for _ in range(10000):
        tt = TruthTable.create(rng.getrandbits(32), 5)
        for cand in area_oriented_candidates(lib, tt, nw.XMG):
            assert _candidate_function(cand, 5).bits == tt.bits


def test_criterion_5_structural_bias_demo():
    """Two shapes of one function map differently; choices take the best."""
    t0 = time.perf_counter()
    a, b = parity10(True), parity10(False)
    la = map_lut(ChoiceNetwork(a), MapParams(k=6)).stats["area"]
    lb = map_lut(ChoiceNetwork(b), MapParams(k=6)).stats["area"]
    assert la != lb
    cn = add_external_choices(ChoiceNetwork(a.one_to_one_map(nw.AIG)), b)
    lc = map_lut(cn, MapParams(k=6)).stats["area"]
    assert lc <= min(la, lb)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_6_choice_dominance(lib):
    """Choices never hurt on curated fixtures; rarely and mildly on random."""
    for name, mk in DOMINANCE_FIXTURES:
        net = mk()
        assert sum(1 for _ in net.gates()) <= 40, name
        base = map_lut(ChoiceNetwork(net.one_to_one_map(nw.AIG)),
                       MapParams(k=4, l=64)).stats["area"]
        got = map_lut(build_mch(net, lib, MchParams(k=4, l=64)),
                      MapParams(k=4, l=64)).stats["area"]
        assert got <= base, name
    rng = random.Random(106)
    wins = 0
    tot_base = tot_mch = 0.0
    for _ in range(100):
        net = random_network(rng.randint(5, 9), rng.randint(20, 45),
                             rng.randint(0, 10**9),
                             n_pos=rng.randint(1, 4))
        base = map_lut(ChoiceNetwork(net.one_to_one_map(nw.AIG)),
                       MapParams(k=4, l=8)).stats["area"]
        got = map_lut(build_mch(net, lib, MchParams(k=4, l=8)),
                      MapParams(k=4, l=8)).stats["area"]
        wins += got <= base
        tot_base += base
        tot_mch += got
    assert wins >= 90
    assert tot_mch <= tot_base * 1.05


def test_criterion_7_mode_self_consistency(cl):
    """Cell-mapping presets order delay and area consistently."""
    from mch.bench import cell_baseline_portfolio, run_flow
    names = ["ctrl", "router", "int2float", "dec", "cavlc", "priority"]
    flows = ["cell-delay", "cell-balanced", "cell-area"]
    table = {}
    for n in names:
        net = read_aiger(f"{BENCH_DIR}/{n}.aag")
        base = cell_baseline_portfolio(net, cl)
        for flow in flows:
            # wall time on a loaded machine is noisy; a flow must fit the
            # budget on its best of three attempts
            best = None
            for _ in range(3):
                t0 = time.perf_counter()
                area, delay, status = run_flow(net, flow, cell_lib=cl,
                                               baseline=base)
                elapsed = time.perf_counter() - t0
                if best is None or elapsed < best[2]:
                    best = (area, delay, elapsed, status)
                if elapsed < 5.0:
                    break
            table[(n, flow)] = best
            assert best[3] == EQUIVALENT, (n, flow, best[3])
            assert best[2] < 5.0, (n, flow, best[2])
    inversions = 0
    for n in names:
        d = table[(n, "cell-delay")]
        b = table[(n, "cell-balanced")]
        a = table[(n, "cell-area")]
        # round away float accumulation noise before comparing
        dd, bd, ad = (round(r[1], 6) for r in (d, b, a))
        da, ba, aa = (round(r[0], 6) for r in (d, b, a))
        inversions += (dd > bd) + (bd > ad)
        inversions += (aa > ba) + (ba > da)
    assert inversions <= 2, inversions


def test_criterion_8_graph_map_escape():
    """Mixed-representation iteration improves on single-shape fixpoints."""
    t0 = time.perf_counter()
    strict = 0
    for name, mk in ESCAPE_FIXTURES:
        net = mk()
        fix, rep = optimize_iterate(net, nw.AIG, mix=nw.AIG)
        f_nodes = network_metrics(fix)[0]
        # confirm the single-representation loop truly stopped improving
        again, _ = optimize_iterate(fix, nw.AIG, mix=nw.AIG)
        assert network_metrics(again)[0] == f_nodes, name
        out, _ = optimize_iterate(fix, nw.XMG)
        o_nodes = network_metrics(out)[0]
        assert o_nodes <= f_nodes, name
        strict += o_nodes < f_nodes
        assert cec(net, out).status == EQUIVALENT, name
    assert len(ESCAPE_FIXTURES) >= 5
    assert strict >= 2
    assert time.perf_counter() - t0 < 60.0


def test_criterion_9_io_round_trip(tmp_path):
    """AIGER isomorphism and BLIF simulation equality on 1,000 networks."""
    from test_aiger import isomorphic
    t0 = time.perf_counter()
    rng = random.Random(109)
    apath = tmp_path / "t.aig"
    bpath = tmp_path / "t.blif"
    for i in range(1000):
        net = random_network(rng.randint(3, 6), rng.randint(3, 15),
                             rng.randint(0, 10**9),
                             n_pos=rng.randint(1, 2))
        write_aiger(net, apath, binary=(i % 2 == 0))
        back = read_aiger(apath)
        assert isomorphic(net, back)
        m = map_lut(ChoiceNetwork(net), MapParams(k=4, rounds=1))
        write_blif(m, bpath)
        model = read_blif(bpath)
        pats = exhaustive_patterns(net.pis)
        width = 1 << len(net.pis)
        got = model.simulate([pats[p] for p in net.pis], width)
        assert got == net.exhaustive_outputs()
    assert time.perf_counter() - t0 < 30.0
