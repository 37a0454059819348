import random

import pytest

from mch import network as nw
from mch import choices
from mch.network import LogicNetwork
from mch.choices import ChoiceNetwork, ChoiceError, MchParams, build_mch, \
    add_external_choices
from mch.strategies import default_library
from mch.gen import and_tree, random_network
from mch.tt import TruthTable
from mch.verify import cec

from fixtures import adder3, on_a_cycle, parity8, parity10, \
    two_class_cycle


@pytest.fixture(scope="module")
def lib():
    return default_library()


def test_wrapper_has_no_choices():
    cn = ChoiceNetwork(parity8())
    cn.check_invariants()
    assert not cn.repr_of


def test_add_choice_basic():
    net = LogicNetwork(nw.AIG)
    a, b = net.add_pi(), net.add_pi()
    c = net.add_pi()
    g1 = net.add_and(net.add_and(a, b), c)
    g2 = net.add_and(a, net.add_and(b, c))   # same function, other shape
    net.add_po(g1)
    cn = ChoiceNetwork(net)
    cn.add_choice(g1.node, g2.node, phase=False)
    cn.check_invariants()
    assert cn.repr_of[g2.node] == g1.node
    assert g2.node in cn.members(g1.node)


def test_build_mch_collects_verified_choices(lib):
    net = parity8()
    cn = build_mch(net, lib, MchParams())
    cn.check_invariants()
    assert cn.stats.classes > 0
    assert cn.stats.members > 0


def test_choice_members_match_representative_function(lib):
    rng = random.Random(31)
    for _ in range(10):
        net = random_network(rng.randint(5, 8), rng.randint(15, 35),
                             rng.randint(0, 10**9))
        cn = build_mch(net, lib, MchParams())
        cn.check_invariants()
        base = cn.base
        width = 1 << len(base.pis)
        mask = (1 << width) - 1
        sim = base.simulate(nw.exhaustive_patterns(base.pis), width)
        # every choice member must equal its representative up to phase
        for member, rep in cn.repr_of.items():
            got = sim[member] ^ (mask if cn.phase[member] else 0)
            assert got == sim[rep]


def test_build_mch_preserves_function(lib):
    rng = random.Random(32)
    for _ in range(10):
        net = random_network(rng.randint(5, 8), rng.randint(15, 35),
                             rng.randint(0, 10**9))
        cn = build_mch(net, lib, MchParams())
        assert cec(net, cn.base).status == "equivalent"


def test_mix_target_embeds(lib):
    net = parity8()
    cn = build_mch(net, lib, MchParams(), mix_target=nw.XMG)
    assert cn.base.tag == nw.XMG
    assert cec(net, cn.base).status == "equivalent"


def test_external_choices_merge(lib):
    a, b = parity10(True), parity10(False)
    cn = add_external_choices(ChoiceNetwork(a.one_to_one_map(nw.AIG)), b)
    cn.check_invariants()
    assert cn.stats.verified > 0
    assert cec(a, cn.base).status == "equivalent"


def test_external_choices_reject_different_function():
    a = parity10(True)
    other = LogicNetwork(nw.AIG)
    xs = [other.add_pi() for _ in range(10)]
    other.add_po(other.add_and(xs[0], xs[1]))
    with pytest.raises(ChoiceError):
        add_external_choices(ChoiceNetwork(a.one_to_one_map(nw.AIG)), other)


def test_external_choices_reject_interface_mismatch():
    a = parity10(True)
    with pytest.raises(ChoiceError):
        add_external_choices(ChoiceNetwork(a.one_to_one_map(nw.AIG)),
                             adder3())


def _and3(net, ps):
    return net.add_and(net.add_and(ps[0], ps[1]), ps[2])


def _and3_or_rare_minterm(net, ps):
    """p0&(p1&p2) | (~p0&p1&...&pn): the AND of _and3 but for the one
    input pattern where only p0 is 0."""
    rare = and_tree(net, [~ps[0]] + ps[1:])
    return net.add_or(net.add_and(ps[0], net.add_and(ps[1], ps[2])), rare)


def test_external_choices_need_a_proof_not_a_clean_simulation():
    a, b = LogicNetwork(nw.AIG), LogicNetwork(nw.AIG)
    a.add_po(_and3(a, [a.add_pi() for _ in range(20)]))
    b.add_po(_and3_or_rare_minterm(b, [b.add_pi() for _ in range(20)]))
    assert cec(a, b).status == "unknown"
    cn = ChoiceNetwork(a)
    with pytest.raises(ChoiceError, match="unknown"):
        add_external_choices(cn, b)
    assert not cn.repr_of


def test_invariants_simulate_every_pattern_up_to_16_pis():
    net = LogicNetwork(nw.AIG)
    ps = [net.add_pi() for _ in range(14)]
    rep = _and3(net, ps)
    member = _and3_or_rare_minterm(net, ps)
    net.add_po(rep)
    cn = ChoiceNetwork(net)
    assert cn.add_choice(rep.node, member.node, member.neg)
    with pytest.raises(ChoiceError, match="not equivalent") as e:
        cn.check_invariants()
    assert e.value.member == member.node


def test_invariants_sample_the_corner_inputs_above_16_pis():
    # (x0&x1)&(~x0&x2) is constant 0: it differs from a 20-input AND only
    # on the all-1 input vector
    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(20)]
    rep = and_tree(net, xs)
    member = net.add_and(net.add_and(xs[0], xs[1]),
                         net.add_and(~xs[0], xs[2]))
    net.add_po(rep)
    assert net.is_gate(member.node)
    cn = ChoiceNetwork(net)
    assert cn.add_choice(rep.node, member.node, member.neg)
    with pytest.raises(ChoiceError, match="not equivalent") as e:
        cn.check_invariants()
    assert e.value.member == member.node


def test_a_two_class_cycle_names_a_member_on_it():
    cn = two_class_cycle()
    with pytest.raises(ChoiceError, match=r"^choice \d+ is on a dependency "
                       r"cycle$") as e:
        cn.check_invariants()
    assert e.value.member in cn.repr_of and on_a_cycle(cn, e.value.member)


def test_order_names_a_member_on_every_cycle():
    # arbitrary classes between gates: the walk either orders every gate
    # after its fanins and members or names a member on a cycle
    rng = random.Random(7)
    cycles = 0
    for i in range(300):
        net = random_network(4, rng.randint(8, 25), rng.randint(0, 10**9),
                             tag=(nw.AIG, nw.XMG)[i % 2])
        gates = list(net.gates())
        cn = ChoiceNetwork(net)
        for _ in range(rng.randint(1, 4)):
            r, m = rng.sample(gates, 2)
            if r not in cn.repr_of:
                cn.add_choice(r, m, False)
        cyclic = any(on_a_cycle(cn, m) for m in cn.repr_of)
        try:
            order = cn.order()
        except ChoiceError as e:
            assert cyclic and on_a_cycle(cn, e.member), (i, str(e))
            assert str(e) == f"choice {e.member} is on a dependency cycle"
            cycles += 1
            continue
        assert not cyclic and sorted(order) == gates
        place = {n: j for j, n in enumerate(order)}
        for n in order:
            deps = [f.node for f in net.fanins(n)] + cn.members(n)
            assert all(place[d] < place[n] for d in deps if net.is_gate(d))
    assert 30 < cycles < 270, cycles


def _per_gate_order(cn: ChoiceNetwork) -> list:
    """`ChoiceNetwork.order` as it was before it read the network's
    columns: the walk over every node, through the per-gate `fanins`
    and `is_gate` views; a cycle raises ChoiceError naming the member
    its reverse walk meets first."""
    net = cn.base
    fanins, members = net.fanins, cn.classes.get
    state = [0 if net.is_gate(n) else 2 for n in range(len(net))]
    order = []
    for start in range(len(net)):
        if state[start] == 2:
            continue
        stack = [start]
        while stack:
            n = stack[-1]
            if state[n] == 2:
                stack.pop()
                continue
            pend = [f for f, _ in fanins(n) if state[f] != 2]
            ms = members(n)
            if ms:
                pend += [d for d in ms if state[d] != 2]
            if pend:
                if state[n] == 1 and any(state[d] == 1 for d in pend):
                    todo = [d for d in pend if state[d] == 1]
                    came = dict.fromkeys(todo, n)
                    for x in todo:
                        for y in [f for f, _ in fanins(x)] + cn.members(x):
                            if state[y] == 1 and y not in came:
                                came[y] = x
                                todo.append(y)
                    m = n
                    while m not in cn.members(came[m]):
                        m = came[m]
                    raise ChoiceError(f"choice {m} is on a dependency "
                                      f"cycle", m)
                state[n] = 1
                stack.extend(pend)
                continue
            stack.pop()
            state[n] = 2
            order.append(n)
    return order


def _same_order(cn: ChoiceNetwork) -> bool:
    """Whether `order` and the per-gate walk give the same order, or
    both name the same member on a cycle; True for a cycle."""
    try:
        want = _per_gate_order(cn)
    except ChoiceError as e:
        with pytest.raises(ChoiceError) as got:
            cn.order()
        assert (got.value.member, str(got.value)) == (e.member, str(e))
        return True
    assert cn.order() == want
    return False


def test_order_equals_the_per_gate_walk_on_every_bundled_circuit(lib):
    from mch.aiger import read_aiger
    from mch.bench import PRESETS
    from pathlib import Path

    bundled = sorted((Path(__file__).resolve().parents[1]
                      / "benchmarks").glob("*.aag"))
    assert len(bundled) == 6
    for path in bundled:
        net = read_aiger(path)
        for preset in ("area", "delay"):
            mix, r, _ = PRESETS[preset]
            cn = build_mch(net, lib, MchParams(r=r), mix_target=mix)
            assert cn.classes, (path.stem, preset)
            assert not _same_order(cn)


def test_order_equals_the_per_gate_walk_on_random_classes():
    # the classes of test_order_names_a_member_on_every_cycle
    rng = random.Random(7)
    cycles = 0
    for i in range(300):
        net = random_network(4, rng.randint(8, 25), rng.randint(0, 10**9),
                             tag=(nw.AIG, nw.XMG)[i % 2])
        gates = list(net.gates())
        cn = ChoiceNetwork(net)
        for _ in range(rng.randint(1, 4)):
            r, m = rng.sample(gates, 2)
            if r not in cn.repr_of:
                cn.add_choice(r, m, False)
        cycles += _same_order(cn)
    assert 30 < cycles < 270, cycles


def test_check_invariants_walks_no_tfi(monkeypatch, lib):
    cn = build_mch(parity8(), lib, MchParams(r=0.8), mix_target=nw.XMG)
    assert cn.classes

    def no_tfi(*args, **kwargs):
        raise AssertionError("check_invariants walked a TFI")

    monkeypatch.setattr(LogicNetwork, "tfi", no_tfi)
    cn.check_invariants()


def test_invariants_refuse_a_class_of_a_primary_input():
    net = LogicNetwork(nw.AIG)
    a, b = net.add_pi(), net.add_pi()
    # (a & b) | (a & ~b) is a, over a's own fanout
    m = net.add_or(net.add_and(a, b), net.add_and(a, ~b))
    net.add_po(m)
    cn = ChoiceNetwork(net)
    assert cn.add_choice(a.node, m.node, m.neg)
    with pytest.raises(ChoiceError, match=f"^representative {a.node} is not "
                       f"a gate$"):
        cn.check_invariants()


def test_a_candidate_off_by_one_minterm_is_never_installed(monkeypatch, lib):
    def off_by_one(real):
        def make(lib, tt, host):
            top = 1 << ((1 << tt.var_count) - 1)  # the all-ones minterm
            return real(lib, TruthTable.create(tt.bits ^ top, tt.var_count),
                        host)
        return make

    for name in ("area_oriented_candidates", "level_oriented_candidates"):
        monkeypatch.setattr(choices, name, off_by_one(getattr(choices, name)))
    net = random_network(20, 300, 7)
    cn = build_mch(net, lib, MchParams())
    assert cn.stats.failed > 0
    assert cn.stats.verified == 0
    assert not cn.repr_of


@pytest.mark.parametrize("mix", [nw.XMG, nw.XAG])
def test_a_one_gate_candidate_over_a_gates_fanins_folds_into_the_gate(
        lib, mix):
    """What lets install count such a candidate deduped without its walk:
    on every bundled circuit, each one-gate candidate of a gate's
    elementary cut walks to the gate itself and adds no node."""
    from pathlib import Path

    from mch.aiger import read_aiger
    from mch.cuts import enumerate_cuts

    root = Path(__file__).resolve().parents[1]
    folded = 0
    for path in sorted((root / "benchmarks").glob("*.aag")):
        net = read_aiger(path).one_to_one_map(mix)
        size = len(net)
        for n, cuts in enumerate_cuts(net, 4, 8).items():
            if not net.is_gate(n):
                continue
            fanins = tuple(sorted(f.node for f in net.fanins(n)))
            for cut in cuts:
                if cut.leaves != fanins:
                    continue
                for query in (choices.area_oriented_candidates,
                              choices.level_oriented_candidates):
                    for cand in query(lib, cut.tt, mix):
                        if cand.size != 1:
                            continue
                        vals = net.images(cand.walk, [
                            2 * cut.leaves[j] for j in cand.support])
                        assert vals[cand.walk.outputs[0] >> 1] >> 1 == n
                        assert len(net) == size
                        folded += 1
    assert folded > 100
