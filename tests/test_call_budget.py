"""The cut kernel's fixed cost per dependency level, as a budget of C
calls and operators.

On an AND chain every dependency level holds one node, so what a round
costs per level is the kernel's fixed cost.  The test counts the C calls
(`sys.setprofile` c_call events: numpy functions and methods, builtins)
that enumerate_cuts, map_lut and map_cells make per level and round, as
the difference between a 400- and a 200-level chain (k=4, rounds=2), and
the operator bytecodes (+, |, ==, [] and the like, which cost as much as
a small call) run in `cuts.py`, `mapper.py` and `choices.py`, where the
kernel, both cost models and the dependency walk (`ChoiceNetwork.order`)
live, as the difference between a 100- and a 50-level chain.
Each is held to the count the kernel reached when its level stages were
merged (the stages before made 65, 58 and 86 calls and ran 256, 259 and
362 operators)."""

import dis
import sys

import pytest

from mch import network as nw
from mch.choices import ChoiceNetwork
from mch.cuts import enumerate_cuts
from mch.mapper import CELL, MapParams, default_cell_library, map_cells, \
    map_lut
from mch.network import LogicNetwork

# per level and round: (C calls, operators)
BUDGET = {"enumerate_cuts": (59, 160), "map_lut": (52, 177),
          "map_cells": (80, 242)}
ROUNDS = {"enumerate_cuts": 1, "map_lut": 2, "map_cells": 2}

_OPERATORS = {dis.opmap[name] for name in (
    "BINARY_OP", "COMPARE_OP", "BINARY_SUBSCR", "STORE_SUBSCR",
    "UNARY_INVERT", "UNARY_NEGATIVE")}


def _chain(levels: int) -> LogicNetwork:
    # four PIs in turn, one AND per level
    net = LogicNetwork(nw.AIG)
    xs = [net.add_pi() for _ in range(4)]
    s = net.add_and(xs[0], xs[1])
    for i in range(levels - 1):
        s = net.add_and(s, xs[(i + 2) % 4].with_neg(i % 3 == 0))
    net.add_po(s)
    return net


def _op(name: str, net):
    cl = default_cell_library()
    return {
        "enumerate_cuts": lambda: enumerate_cuts(net, 4),
        "map_lut": lambda: map_lut(ChoiceNetwork(net),
                                   MapParams(k=4, rounds=2)),
        "map_cells": lambda: map_cells(ChoiceNetwork(net), cl, MapParams(
            k=4, rounds=2, target=CELL)),
    }[name]


def _c_calls(run) -> int:
    count = [0]

    def hook(frame, event, arg):
        if event == "c_call":
            count[0] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count[0]


def _operators(run) -> int:
    """Operator bytecodes run in the program's cut, mapper and choice
    modules."""
    count = [0]

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.endswith(
                ("cuts.py", "mapper.py", "choices.py")):
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False

        def local(frame, event, arg):
            if event == "opcode" and \
                    frame.f_code.co_code[frame.f_lasti] in _OPERATORS:
                count[0] += 1
            return local
        return local

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return count[0]


def _per_level(name: str, measure, short: int, long: int) -> float:
    # library and cache warm-up, then the difference between two chains
    _op(name, _chain(20))()
    a = measure(_op(name, _chain(short)))
    b = measure(_op(name, _chain(long)))
    return (b - a) / ((long - short) * ROUNDS[name])


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_calls_per_level_stay_in_budget(name, record_property):
    calls = _per_level(name, _c_calls, 200, 400)
    ops = _per_level(name, _operators, 50, 100)
    record_property("c_calls_per_level_round", calls)
    record_property("operators_per_level_round", ops)
    print(f"{name}: {calls:.1f} C calls and {ops:.1f} operators "
          f"per level and round")
    max_calls, max_ops = BUDGET[name]
    assert calls <= max_calls and ops <= max_ops, (name, calls, ops)
