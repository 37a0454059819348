"""NPN canonization: input negation/permutation plus output negation.

Exact (lexicographic-minimum) canonization for up to 4 variables by
enumerating the full transform group; 5- and 6-variable tables fall back
to a semi-canonical heuristic.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .tt import TruthTable


class NpnTransform(NamedTuple):
    perm: tuple          # tt-variable i appears as variable perm[i] of result
    neg: int             # input-negation mask over tt variables
    out_neg: bool

    def inverse(self) -> "NpnTransform":
        q = tuple(self.perm.index(j) for j in range(len(self.perm)))
        neg = 0
        for j in range(len(self.perm)):
            if (self.neg >> q[j]) & 1:
                neg |= 1 << j
        return NpnTransform(q, neg, self.out_neg)


def compose(a: NpnTransform, b: NpnTransform) -> NpnTransform:
    """Transform c with apply(f, c) == apply(apply(f, b), a)."""
    v = len(a.perm)
    perm = tuple(a.perm[b.perm[i]] for i in range(v))
    neg = 0
    for i in range(v):
        bit = ((a.neg >> b.perm[i]) & 1) ^ ((b.neg >> i) & 1)
        neg |= bit << i
    return NpnTransform(perm, neg, a.out_neg ^ b.out_neg)


class CanonResult(NamedTuple):
    tt: TruthTable
    transform: NpnTransform


import functools


@functools.lru_cache(maxsize=None)
def _minterm_map(perm, neg, v):
    """src[m] such that apply(T, f)[m] = f[src[m]]."""
    span = 1 << v
    src = []
    for m in range(span):
        u = 0
        for i in range(v):
            bit = (m >> perm[i]) & 1
            bit ^= (neg >> i) & 1
            u |= bit << i
        src.append(u)
    return tuple(src)


def apply_npn(tt: TruthTable, t: NpnTransform) -> TruthTable:
    v = tt.var_count
    src = _minterm_map(t.perm, t.neg, v)
    bits = 0
    for m in range(1 << v):
        if tt.value_at(src[m]):
            bits |= 1 << m
    if t.out_neg:
        bits ^= (1 << (1 << v)) - 1
    return TruthTable.create(bits, v)


@lru_cache(maxsize=None)
def _transform_tables(v: int):
    """All input transforms for v vars as (perm, neg, src-array)."""
    perms = list(itertools.permutations(range(v)))
    metas = []
    srcs = []
    for perm in perms:
        for neg in range(1 << v):
            metas.append((perm, neg))
            srcs.append(_minterm_map(perm, neg, v))
    src_arr = np.array(srcs, dtype=np.int64)          # (Nt, 2^v)
    pows = (np.int64(1) << np.arange(1 << v, dtype=np.int64))
    return metas, src_arr, pows


def npn_canonize(tt: TruthTable) -> CanonResult:
    v = tt.var_count
    if v > 4:
        return _heuristic_canonize(tt)
    span = 1 << v
    metas, src_arr, pows = _transform_tables(v)
    bitvec = np.fromiter(((tt.bits >> m) & 1 for m in range(span)),
                         dtype=np.int64, count=span)
    gathered = bitvec[src_arr]                         # (Nt, span)
    vals_pos = gathered @ pows
    vals_neg = (1 - gathered) @ pows
    ip = int(vals_pos.argmin())
    ineg = int(vals_neg.argmin())
    if vals_pos[ip] <= vals_neg[ineg]:
        perm, neg = metas[ip]
        t = NpnTransform(perm, neg, False)
        canon = TruthTable.create(int(vals_pos[ip]), v)
    else:
        perm, neg = metas[ineg]
        t = NpnTransform(perm, neg, True)
        canon = TruthTable.create(int(vals_neg[ineg]), v)
    return CanonResult(canon, t)


def npn_classify_all4() -> np.ndarray:
    """Canonical representative for every 4-var function, vectorized."""
    metas, src_arr, pows = _transform_tables(4)
    vals = np.arange(65536, dtype=np.int64)
    best = vals.copy()
    for row in src_arr:
        mapped = np.zeros(65536, dtype=np.int64)
        for j in range(16):
            mapped |= ((vals >> int(row[j])) & 1) << j
        np.minimum(best, mapped, out=best)
        np.minimum(best, mapped ^ 0xFFFF, out=best)
    return best


def _heuristic_canonize(tt: TruthTable) -> CanonResult:
    """Semi-canonical form for 5-6 vars: weight-based, not class-exact."""
    v = tt.var_count
    span = 1 << v
    half = span // 2
    work = tt
    out_neg = False
    pc = work.popcount()
    if pc > half or (pc == half and work.value_at(0)):
        work = ~work
        out_neg = True
    neg = 0
    for i in range(v):
        c0 = work.cofactor(i, 0).popcount()
        c1 = work.cofactor(i, 1).popcount()
        if c1 < c0:
            neg |= 1 << i
    if neg:
        work = apply_npn(work, NpnTransform(tuple(range(v)), neg, False))
    keys = []
    for i in range(v):
        c1 = work.cofactor(i, 1)
        keys.append((c1.popcount(), c1.bits & ((1 << span) - 1), i))
    order = sorted(range(v), key=lambda i: keys[i])
    perm = [0] * v
    for newpos, i in enumerate(order):
        perm[i] = newpos
    t = NpnTransform(tuple(perm), 0, False)
    work = apply_npn(work, t)
    total = NpnTransform(tuple(perm), neg, out_neg)
    return CanonResult(work, total)
