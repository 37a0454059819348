"""The same function, two shapes, two different mapping results.

A 10-input parity built as a balanced XOR tree maps to a different number
of 6-LUTs than the same parity built as a serial XOR chain.  Registering
both shapes as choices lets the mapper take whichever structure is
cheaper, cut by cut.

Run:  python3 demos/structural_bias.py
"""

import sys
import os

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mch import network as nw
from mch.network import LogicNetwork
from mch.choices import ChoiceNetwork, add_external_choices
from mch.mapper import MapParams, map_lut


def xor(net, a, b):
    t1 = net.add_and(a, ~b)
    t2 = net.add_and(~a, b)
    return ~net.add_and(~t1, ~t2)


def parity(balanced):
    net = LogicNetwork(nw.AIG)
    sigs = [net.add_pi() for _ in range(10)]
    if balanced:
        while len(sigs) > 1:
            nxt = [xor(net, sigs[i], sigs[i + 1])
                   for i in range(0, len(sigs) - 1, 2)]
            if len(sigs) % 2:
                nxt.append(sigs[-1])
            sigs = nxt
        net.add_po(sigs[0])
    else:
        acc = sigs[0]
        for s in sigs[1:]:
            acc = xor(net, acc, s)
        net.add_po(acc)
    return net


def main():
    tree = parity(True)
    chain = parity(False)
    p = MapParams(k=6)

    m_tree = map_lut(ChoiceNetwork(tree), p)
    m_chain = map_lut(ChoiceNetwork(chain), p)
    print("balanced tree : %g LUTs, depth %g"
          % (m_tree.stats["area"], m_tree.stats["delay"]))
    print("serial chain  : %g LUTs, depth %g"
          % (m_chain.stats["area"], m_chain.stats["delay"]))

    cn = add_external_choices(ChoiceNetwork(tree.one_to_one_map(nw.AIG)),
                              chain)
    m_both = map_lut(cn, p)
    print("both as choices: %g LUTs, depth %g"
          % (m_both.stats["area"], m_both.stats["delay"]))
    best = min(m_tree.stats["area"], m_chain.stats["area"])
    assert m_both.stats["area"] <= best
    print("the choice mapping is never worse than the better structure")


if __name__ == "__main__":
    main()
