"""Combinational equivalence checking oracle.

Exhaustive (and therefore exact) up to 16 PIs; beyond that a budgeted
random-plus-corner simulation that can only ever report UNKNOWN or find a
counterexample.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .network import LogicNetwork, exhaustive_patterns

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not-equivalent"
UNKNOWN = "unknown"

EXHAUSTIVE_PI_LIMIT = 16


class Verdict(NamedTuple):
    status: str
    counterexample: Optional[list[int]]  # PI values, in PI order
    patterns: int

    def __bool__(self) -> bool:
        return self.status == EQUIVALENT


class InterfaceMismatch(Exception):
    pass


def cec(a: LogicNetwork, b: LogicNetwork, budget: int = 4096) -> Verdict:
    if len(a.pis) != len(b.pis) or len(a.outputs) != len(b.outputs):
        raise InterfaceMismatch(
            f"interface mismatch: {len(a.pis)}/{len(a.outputs)} PIs/POs vs "
            f"{len(b.pis)}/{len(b.outputs)}")
    npi = len(a.pis)
    if npi <= EXHAUSTIVE_PI_LIMIT:
        width = 1 << npi
        pa = exhaustive_patterns(a.pis)
        pb = {nb: pa[na] for na, nb in zip(a.pis, b.pis)}
        oa = a.output_values(pa, width)
        ob = b.output_values(pb, width)
        for i, (va, vb) in enumerate(zip(oa, ob)):
            diff = va ^ vb
            if diff:
                m = (diff & -diff).bit_length() - 1
                cex = [(m >> j) & 1 for j in range(npi)]
                return Verdict(NOT_EQUIVALENT, cex, width)
        return Verdict(EQUIVALENT, None, width)

    rng = random.Random(0xC0FFEE)
    width = 256
    done = 0
    corner_words = [0, (1 << width) - 1]
    while done < budget:
        pa = {}
        pb = {}
        for idx, (na, nb) in enumerate(zip(a.pis, b.pis)):
            if done == 0 and idx < 2:
                w = corner_words[idx]
            else:
                w = rng.getrandbits(width)
            pa[na] = w
            pb[nb] = w
        oa = a.output_values(pa, width)
        ob = b.output_values(pb, width)
        for va, vb in zip(oa, ob):
            diff = va ^ vb
            if diff:
                m = (diff & -diff).bit_length() - 1
                cex = [(pa[na] >> m) & 1 for na in a.pis]
                return Verdict(NOT_EQUIVALENT, cex, done + width)
        done += width
    return Verdict(UNKNOWN, None, done)


def check_counterexample(a: LogicNetwork, b: LogicNetwork,
                         cex: list[int]) -> bool:
    """True when the input vector provably separates the two networks."""
    pa = {n: v for n, v in zip(a.pis, cex)}
    pb = {n: v for n, v in zip(b.pis, cex)}
    return a.output_values(pa, 1) != b.output_values(pb, 1)
