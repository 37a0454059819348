"""Simulation verdicts: combinational equivalence checking, and the one
input-pattern policy every functional check in the package runs on.

`input_runs` yields the patterns and `compare` turns two sides' output
words into a `Verdict`; `cec`, `mapper.cover_check` and
`ChoiceNetwork.check_invariants` all run through them.  Up to
EXHAUSTIVE_PI_LIMIT PIs every input pattern is simulated, so
`equivalent` is a proof.  Above it, one run of fixed-seed random patterns
that holds the all-0 and all-1 input vectors can only find a
counterexample or report `unknown`.  A run holds at most 2^12
patterns, 512 bytes per simulated node however many PIs there are.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, NamedTuple, Optional

from .network import LogicNetwork, exhaustive_patterns

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not-equivalent"
UNKNOWN = "unknown"

EXHAUSTIVE_PI_LIMIT = 16
_RUN_VARS = 12


class Verdict(NamedTuple):
    status: str
    counterexample: Optional[list[int]]  # PI values, in PI order
    patterns: int

    def __bool__(self) -> bool:
        return self.status == EQUIVALENT


class InterfaceMismatch(Exception):
    pass


def input_runs(npi: int) -> Iterator[tuple[int, list[int]]]:
    """(width, one word per PI) per simulation run.  Up to
    EXHAUSTIVE_PI_LIMIT PIs, every input pattern: the low _RUN_VARS PIs in
    minterm order within a run, the others constant across it.  Above it,
    one run of random patterns whose first is all-0 and last all-1."""
    if npi > EXHAUSTIVE_PI_LIMIT:
        width = 1 << _RUN_VARS
        rng = random.Random(0xC0FFEE)
        yield width, [(rng.getrandbits(width) & ~1) | (1 << (width - 1))
                      for _ in range(npi)]
        return
    low = min(npi, _RUN_VARS)
    words = list(exhaustive_patterns(list(range(low))).values())
    for high in range(1 << (npi - low)):
        # -1 is an all-ones word once the simulator masks it
        yield 1 << low, words + [-((high >> i) & 1)
                                 for i in range(npi - low)]


def compare(npi: int, sides: Callable[[list[int], int], tuple]) -> Verdict:
    """Verdict over the runs of input_runs(npi), where sides(words,
    width) simulates one run and returns the two sides' output words."""
    done = 0
    for width, words in input_runs(npi):
        done += width
        for va, vb in zip(*sides(words, width)):
            diff = va ^ vb
            if diff:
                bit = (diff & -diff).bit_length() - 1
                return Verdict(NOT_EQUIVALENT,
                               [(w >> bit) & 1 for w in words], done)
    return Verdict(EQUIVALENT if npi <= EXHAUSTIVE_PI_LIMIT else UNKNOWN,
                   None, done)


def cec(a: LogicNetwork, b: LogicNetwork) -> Verdict:
    if len(a.pis) != len(b.pis) or len(a.outputs) != len(b.outputs):
        raise InterfaceMismatch(
            f"interface mismatch: {len(a.pis)}/{len(a.outputs)} PIs/POs vs "
            f"{len(b.pis)}/{len(b.outputs)}")
    return compare(len(a.pis), lambda words, width: (
        a.output_values(dict(zip(a.pis, words)), width),
        b.output_values(dict(zip(b.pis, words)), width)))


def check_counterexample(a: LogicNetwork, b: LogicNetwork,
                         cex: list[int]) -> bool:
    """True when the input vector provably separates the two networks."""
    pa = {n: v for n, v in zip(a.pis, cex)}
    pb = {n: v for n, v in zip(b.pis, cex)}
    return a.output_values(pa, 1) != b.output_values(pb, 1)
