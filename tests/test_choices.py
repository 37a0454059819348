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

from fixtures import parity8, parity10, adder3


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
