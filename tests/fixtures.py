"""Hand-built circuits shared across the test suite.

Every builder returns a plain AIG so the same fixture can feed the
embedding, choice, mapping and rewriting layers.  Builders are grouped by
what they exercise: small arithmetic blocks, structural-variant pairs for
choice mapping, and XOR/MAJ-rich circuits whose AIG form leaves room for
a mixed-representation rewrite to shrink.
"""

from mch import network as nw
from mch.network import LogicNetwork, Signal


def candidate_function(cand, var_count: int) -> int:
    """Output word of a strategy candidate's walk run over var_count fresh
    inputs, its support leaves among them, in exhaustive order."""
    net = LogicNetwork(cand.walk.tag)
    pis = [net.add_pi() for _ in range(var_count)]
    net.add_po(Signal(*net.run(cand.walk, [pis[j] for j in cand.support])[0]))
    return net.exhaustive_outputs()[0]


def candidate_network(cand) -> LogicNetwork:
    """A strategy candidate's structure as a network: one PI per input of
    its walk, the walk's output as its one PO."""
    net = LogicNetwork(cand.walk.tag)
    pis = [net.add_pi() for _ in range(cand.walk.inputs)]
    net.add_po(Signal(*net.run(cand.walk, pis)[0]))
    return net


# -- gate helpers over a raw AIG --------------------------------------


def aig_xor(net: LogicNetwork, a: Signal, b: Signal) -> Signal:
    t1 = net.add_and(a, ~b)
    t2 = net.add_and(~a, b)
    return ~net.add_and(~t1, ~t2)


def aig_or(net: LogicNetwork, a: Signal, b: Signal) -> Signal:
    return ~net.add_and(~a, ~b)


def aig_mux(net: LogicNetwork, s: Signal, a: Signal, b: Signal) -> Signal:
    """Returns a when s=1 else b."""
    return aig_or(net, net.add_and(s, a), net.add_and(~s, b))


def aig_maj(net: LogicNetwork, a: Signal, b: Signal, c: Signal) -> Signal:
    return aig_or(net, net.add_and(a, b),
                  net.add_and(c, aig_or(net, a, b)))


# -- structural-variant pair (different LUT counts, same function) -----


def parity10(balanced: bool) -> LogicNetwork:
    """10-input parity; balanced XOR tree or a serial XOR chain.

    At k=6 the two structures map to a different number of LUTs, which
    makes them a good pair for demonstrating structural bias.
    """
    net = LogicNetwork(nw.AIG)
    sigs = [net.add_pi() for _ in range(10)]
    if balanced:
        while len(sigs) > 1:
            nxt = [aig_xor(net, sigs[i], sigs[i + 1])
                   for i in range(0, len(sigs) - 1, 2)]
            if len(sigs) % 2:
                nxt.append(sigs[-1])
            sigs = nxt
        net.add_po(sigs[0])
    else:
        acc = sigs[0]
        for s in sigs[1:]:
            acc = aig_xor(net, acc, s)
        net.add_po(acc)
    return net


# -- choice-dominance fixtures (all <= 40 gates) -----------------------


def parity8() -> LogicNetwork:
    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(8)]
    acc = xs[0]
    for s in xs[1:]:
        acc = aig_xor(net, acc, s)
    net.add_po(acc)
    return net


def adder3() -> LogicNetwork:
    """3-bit ripple-carry adder, 4 outputs."""
    net = LogicNetwork(nw.AIG)
    a = [net.add_pi() for _ in range(3)]
    b = [net.add_pi() for _ in range(3)]
    c = Signal(0, False)
    for i in range(3):
        net.add_po(aig_xor(net, aig_xor(net, a[i], b[i]), c))
        c = aig_maj(net, a[i], b[i], c)
    net.add_po(c)
    return net


def majority5() -> LogicNetwork:
    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(5)]
    m1 = aig_maj(net, xs[0], xs[1], xs[2])
    m2 = aig_maj(net, xs[2], xs[3], xs[4])
    net.add_po(aig_maj(net, m1, m2, aig_xor(net, xs[0], xs[4])))
    return net


def comparator4() -> LogicNetwork:
    """Serial 4-bit magnitude comparator, one greater-than output."""
    net = LogicNetwork(nw.AIG)
    a = [net.add_pi() for _ in range(4)]
    b = [net.add_pi() for _ in range(4)]
    gt = Signal(0, False)
    for i in range(4):
        eq = ~aig_xor(net, a[i], b[i])
        gt = aig_or(net, net.add_and(a[i], ~b[i]), net.add_and(eq, gt))
    net.add_po(gt)
    return net


def mux41_tree() -> LogicNetwork:
    net = LogicNetwork(nw.AIG)
    s = [net.add_pi() for _ in range(2)]
    d = [net.add_pi() for _ in range(4)]
    lo = aig_mux(net, s[0], d[1], d[0])
    hi = aig_mux(net, s[0], d[3], d[2])
    net.add_po(aig_mux(net, s[1], hi, lo))
    return net


def onehot6() -> LogicNetwork:
    """True iff exactly one of six inputs is set."""
    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(6)]
    any1 = Signal(0, False)
    two = Signal(0, False)
    for x in xs:
        two = aig_or(net, two, net.add_and(any1, x))
        any1 = aig_or(net, any1, x)
    net.add_po(net.add_and(any1, ~two))
    return net


def csa6() -> LogicNetwork:
    """Two full adders plus a merge layer over six inputs."""
    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(6)]
    s1 = aig_xor(net, aig_xor(net, xs[0], xs[1]), xs[2])
    c1 = aig_maj(net, xs[0], xs[1], xs[2])
    s2 = aig_xor(net, aig_xor(net, xs[3], xs[4]), xs[5])
    c2 = aig_maj(net, xs[3], xs[4], xs[5])
    net.add_po(aig_xor(net, s1, s2))
    net.add_po(aig_maj(net, s1, s2, c1))
    net.add_po(net.add_and(c1, c2))
    return net


def priority4() -> LogicNetwork:
    """4-way fixed-priority arbiter, one grant line per request."""
    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(4)]
    seen = Signal(0, False)
    for x in xs:
        net.add_po(net.add_and(x, ~seen))
        seen = aig_or(net, seen, x)
    return net


def xorand8() -> LogicNetwork:
    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(8)]
    a = net.add_and(net.add_and(xs[0], xs[1]), net.add_and(xs[2], xs[3]))
    b = aig_xor(net, aig_xor(net, xs[4], xs[5]), aig_xor(net, xs[6], xs[7]))
    net.add_po(aig_xor(net, a, b))
    return net


def decoder3() -> LogicNetwork:
    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(3)]
    for v in range(8):
        lits = [xs[i] if (v >> i) & 1 else ~xs[i] for i in range(3)]
        net.add_po(net.add_and(net.add_and(lits[0], lits[1]), lits[2]))
    return net


DOMINANCE_FIXTURES = [
    ("parity8", parity8),
    ("adder3", adder3),
    ("majority5", majority5),
    ("comparator4", comparator4),
    ("mux41_tree", mux41_tree),
    ("onehot6", onehot6),
    ("csa6", csa6),
    ("priority4", priority4),
    ("xorand8", xorand8),
    ("decoder3", decoder3),
]


# -- rewrite-escape fixtures (XOR/MAJ-rich AIGs) -----------------------


def adder4() -> LogicNetwork:
    net = LogicNetwork(nw.AIG)
    a = [net.add_pi() for _ in range(4)]
    b = [net.add_pi() for _ in range(4)]
    c = Signal(0, False)
    for i in range(4):
        net.add_po(aig_xor(net, aig_xor(net, a[i], b[i]), c))
        c = aig_maj(net, a[i], b[i], c)
    net.add_po(c)
    return net


def majority5_wide() -> LogicNetwork:
    """MAJ of three 3-input majorities over five shared inputs."""
    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(5)]
    m1 = aig_maj(net, xs[0], xs[1], xs[2])
    m2 = aig_maj(net, xs[1], xs[3], xs[4])
    m3 = aig_maj(net, xs[0], xs[3], xs[4])
    net.add_po(aig_maj(net, m1, m2, m3))
    return net


def parity_tree_mix() -> LogicNetwork:
    """XOR tree with an AND layer mixed in."""
    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(6)]
    x1 = aig_xor(net, xs[0], xs[1])
    x2 = aig_xor(net, xs[2], xs[3])
    x3 = net.add_and(xs[4], xs[5])
    net.add_po(aig_xor(net, aig_xor(net, x1, x2), x3))
    return net


def csa_tree() -> LogicNetwork:
    """Carry-save reduction of nine inputs to a single sum/carry pair."""
    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(9)]
    s1 = aig_xor(net, aig_xor(net, xs[0], xs[1]), xs[2])
    c1 = aig_maj(net, xs[0], xs[1], xs[2])
    s2 = aig_xor(net, aig_xor(net, xs[3], xs[4]), xs[5])
    c2 = aig_maj(net, xs[3], xs[4], xs[5])
    s3 = aig_xor(net, aig_xor(net, xs[6], xs[7]), xs[8])
    net.add_po(aig_xor(net, aig_xor(net, s1, s2), s3))
    net.add_po(aig_maj(net, c1, c2, aig_maj(net, s1, s2, s3)))
    return net


ESCAPE_FIXTURES = [
    ("parity8", parity8),
    ("adder4", adder4),
    ("majority5_wide", majority5_wide),
    ("parity_tree_mix", parity_tree_mix),
    ("comparator4", comparator4),
    ("csa_tree", csa_tree),
]
