"""Escaping a single-representation optimization fixpoint.

Iterated AIG-only remapping of an 8-input parity stops improving at some
network F.  Re-running the same loop with mixed-representation choices
and an XOR-majority graph target keeps shrinking past F, because XOR
templates express the parity cones directly.

Run:  python3 demos/rewrite_escape.py
"""

import sys
import os

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mch import network as nw
from mch.network import LogicNetwork
from mch.graphmap import network_metrics, optimize_iterate
from mch.verify import cec


def parity8():
    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(8)]
    acc = xs[0]
    for x in xs[1:]:
        t1 = net.add_and(acc, ~x)
        t2 = net.add_and(~acc, x)
        acc = ~net.add_and(~t1, ~t2)
    net.add_po(acc)
    return net


def main():
    net = parity8()
    print("input         : %d nodes, %d levels" % network_metrics(net))

    fix, rep = optimize_iterate(net, nw.AIG, mix=nw.AIG)
    print("aig fixpoint  : %d nodes, %d levels (%s after %d iterations)"
          % (*network_metrics(fix), rep.termination, len(rep.steps)))

    out, rep = optimize_iterate(fix, nw.XMG)
    print("xmg from there: %d nodes, %d levels (%s after %d iterations)"
          % (*network_metrics(out), rep.termination, len(rep.steps)))

    assert cec(net, out).status == "equivalent"
    assert network_metrics(out)[0] < network_metrics(fix)[0]
    print("equivalence verified; the mixed flow beat the aig fixpoint")


if __name__ == "__main__":
    main()
