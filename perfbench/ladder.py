"""Seeded random AIG generator for the `ladder` workload.

The generator is owned by the benchmark: it does not import `mch`, and the
program only ever sees the AIGER text it returns.

Every network has exactly `n_pis` inputs and `n_gates` AND gates, and no
dead logic: each gate and each input feeds at least one gate or output.
Gates are never structurally redundant (no repeated fanin pair, no gate with
both fanins on one variable), so a strashing reader keeps every gate.
"""

from __future__ import annotations

import random

N_PIS = 16

# Why these sizes: at about 1000 gates choice construction takes a couple of
# seconds and the per-node MFFC computation is already a visible share; at
# about 2000 gates that quadratic MFFC computation dominates construction.
# The pair shows how construction scales, and both stay at 16 PIs so the
# oracle can check every choice exhaustively.
SIZES = (1000, 2000)

# Each network is two blocks over the shared inputs: a deep block with a
# fifth of the gates, and a shallow block with the rest.  The shallow block
# ends below the area preset's critical threshold (ceil(0.8 * 20) = 16), so
# its gates always get area-oriented (MFFC) candidates and the deep block
# always gets level-oriented ones.  A flat random DAG instead moves the
# critical share by a quarter from seed to seed, and the run time with it.
DEEP_SHARE = 0.2
DEEP_LEVELS = 20
SHALLOW_LEVELS = 12


def random_aig(n_gates: int, seed: int, n_pis: int = N_PIS) -> str:
    """ASCII AIGER text of a random AIG; the same arguments give the same
    text.

    In each block a gate at level l takes one fanin from level l-1, which
    fixes the depth, and the other from any lower level or an input.  Every
    gate that feeds nothing becomes an output.
    """
    n_deep = round(n_gates * DEEP_SHARE)
    if n_pis < 2 or n_deep < DEEP_LEVELS or \
            n_gates - n_deep < max(n_pis, SHALLOW_LEVELS):
        raise ValueError("network too small for its blocks")
    rng = random.Random(f"ladder:{n_pis}:{n_gates}:{seed}")
    pis = list(range(1, n_pis + 1))
    unused = set(pis)                     # variables that feed nothing yet
    pairs = set()
    gates = []                            # (lhs, rhs0, rhs1) literals

    def block(size: int, depth: int) -> None:
        levels = [pis]
        for lv in range(1, depth + 1):
            width = size * lv // depth - size * (lv - 1) // depth
            levels.append([])
            while len(levels[lv]) < width:
                if lv == 1 and len(levels[1]) < n_pis:
                    a = pis[len(levels[1])]   # every input gets used
                else:
                    a = rng.choice(levels[lv - 1])
                b = rng.choice(levels[rng.randrange(lv)])
                if a == b:
                    continue
                la = 2 * a + rng.getrandbits(1)
                lb = 2 * b + rng.getrandbits(1)
                key = (max(la, lb), min(la, lb))
                if key in pairs:
                    continue
                pairs.add(key)
                var = n_pis + len(gates) + 1
                gates.append((2 * var,) + key)
                levels[lv].append(var)
                unused.difference_update((a, b))
                unused.add(var)

    block(n_gates - n_deep, SHALLOW_LEVELS)
    block(n_deep, DEEP_LEVELS)
    nvars = n_pis + len(gates)
    # every variable nobody reads becomes an output, so nothing is dead
    outs = [2 * v + rng.getrandbits(1) for v in sorted(unused)]
    lines = [f"aag {nvars} {n_pis} 0 {len(outs)} {len(gates)}"]
    lines += [str(2 * v) for v in pis]
    lines += [str(lit) for lit in outs]
    lines += [f"{lhs} {r0} {r1}" for lhs, r0, r1 in gates]
    return "\n".join(lines) + "\n"
