"""Mapping with a multi-strategy choice network versus mapping as-is.

Builds a choice network over a ripple-carry adder: critical-path nodes
get depth-oriented rewrites from the NPN4 template database, the rest
get area-oriented factored forms.  All variants live in one arena and
the LUT mapper picks among them per cut.

Run:  python3 demos/choice_mapping.py
"""

import sys
import os

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mch import network as nw
from mch.network import LogicNetwork, Signal
from mch.choices import ChoiceNetwork, MchParams, build_mch
from mch.mapper import MapParams, map_lut, map_cells, CELL, \
    default_cell_library
from mch.strategies import default_library
from mch.verify import cec


def adder(bits):
    net = LogicNetwork(nw.AIG)
    a = [net.add_pi() for _ in range(bits)]
    b = [net.add_pi() for _ in range(bits)]
    c = Signal(0, False)
    for i in range(bits):
        axb = ~net.add_and(~net.add_and(a[i], ~b[i]),
                           ~net.add_and(~a[i], b[i]))
        s = ~net.add_and(~net.add_and(axb, ~c), ~net.add_and(~axb, c))
        c = ~net.add_and(~net.add_and(a[i], b[i]), ~net.add_and(axb, c))
        net.add_po(s)
    net.add_po(c)
    return net


def main():
    net = adder(6)
    lib = default_library()
    cl = default_cell_library()

    cn = build_mch(net, lib, MchParams(k=4, l=16), mix_target=nw.XMG)
    print("choice network: %d classes, %d extra members, arena %d nodes"
          % (len(cn.class_reprs()), len(cn.repr_of), cn.base.num_gates()))
    assert cec(net, cn.base).status == "equivalent"

    plain = ChoiceNetwork(net.one_to_one_map(nw.AIG))
    for label, target in (("plain", plain), ("choices", cn)):
        m = map_lut(target, MapParams(k=4, l=16))
        print("%-7s lut : %g LUTs, depth %g"
              % (label, m.stats["area"], m.stats["delay"]))
    for label, target in (("plain", plain), ("choices", cn)):
        m = map_cells(target, cl, MapParams(k=6, target=CELL))
        print("%-7s cell: area %g, delay %g"
              % (label, m.stats["area"], m.stats["delay"]))


if __name__ == "__main__":
    main()
