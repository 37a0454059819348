"""Deterministic generators for test and benchmark networks."""

from __future__ import annotations

import random

from . import network as nw
from .network import LogicNetwork, Signal


def random_network(n_pis: int, n_gates: int, seed: int,
                   tag: str = nw.AIG, n_pos: int | None = None) -> LogicNetwork:
    """Random strashed network; deterministic for a given seed."""
    rng = random.Random(seed)
    net = LogicNetwork(tag)
    sigs = [net.add_pi() for _ in range(n_pis)]
    kinds = sorted(nw.ALLOWED_KINDS[tag])
    first_gate = len(net)  # every node added after the PIs is a gate
    tries = 0
    while len(net) - first_gate < n_gates and tries < n_gates * 50:
        tries += 1
        kind = rng.choice(kinds)
        ins = [Signal(rng.choice(sigs).node, rng.random() < 0.5)
               for _ in range(nw.ARITY[kind])]
        before = len(net)
        s = net.add(kind, ins)
        if len(net) > before:
            sigs.append(s)
    outs = net.fanouts()
    dangling = [n for n in net.gates() if not outs[n]]
    if not dangling:
        dangling = [max(net.gates(), default=0)]
    if n_pos is not None:
        while len(dangling) < n_pos:
            dangling.append(rng.choice(sigs).node)
        dangling = dangling[:n_pos]
    for n in dangling:
        net.add_po(Signal(n, rng.random() < 0.5))
    return net


def and_tree(net: LogicNetwork, sigs, balanced: bool = True) -> Signal:
    sigs = list(sigs)
    if balanced:
        while len(sigs) > 1:
            nxt = [net.add_and(sigs[i], sigs[i + 1])
                   for i in range(0, len(sigs) - 1, 2)]
            if len(sigs) % 2:
                nxt.append(sigs[-1])
            sigs = nxt
        return sigs[0]
    acc = sigs[0]
    for s in sigs[1:]:
        acc = net.add_and(acc, s)
    return acc
