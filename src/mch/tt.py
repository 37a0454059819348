"""Truth tables over at most six variables, packed into a 64-bit word.

For v < 6 variables the 2^v-bit pattern is replicated through the upper
bits, so equality and bitwise operators work uniformly at any var count.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

MAX_VARS = 6
WORD_BITS = 64
FULL = (1 << WORD_BITS) - 1

# mask of positions where variable i is 1, replicated over 64 bits
VAR_MASKS = []
for _i in range(MAX_VARS):
    _period = 1 << _i
    _w = 0
    for _s in range(_period, WORD_BITS, 2 * _period):
        _w |= ((1 << _period) - 1) << _s
    VAR_MASKS.append(_w)


def pad(bits: int, var_count: int) -> int:
    """Replicate a 2^v-bit pattern to fill the 64-bit word."""
    span = 1 << var_count
    bits &= (1 << span) - 1
    while span < WORD_BITS:
        bits |= bits << span
        span <<= 1
    return bits


class TruthTable(NamedTuple):
    bits: int
    var_count: int

    @staticmethod
    def create(bits: int, var_count: int) -> "TruthTable":
        if not 0 <= var_count <= MAX_VARS:
            raise ValueError(f"var count {var_count} out of range")
        return TruthTable(pad(bits, var_count), var_count)

    @staticmethod
    def const(value: bool, var_count: int = 0) -> "TruthTable":
        return TruthTable(FULL if value else 0, var_count)

    @staticmethod
    def var(i: int, var_count: int) -> "TruthTable":
        return TruthTable(pad(VAR_MASKS[i], var_count), var_count)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.bits ^ FULL, self.var_count)

    def __and__(self, o: "TruthTable") -> "TruthTable":
        return TruthTable(self.bits & o.bits, max(self.var_count, o.var_count))

    def __or__(self, o: "TruthTable") -> "TruthTable":
        return TruthTable(self.bits | o.bits, max(self.var_count, o.var_count))

    def __xor__(self, o: "TruthTable") -> "TruthTable":
        return TruthTable(self.bits ^ o.bits, max(self.var_count, o.var_count))

    def is_const0(self) -> bool:
        return self.bits == 0

    def is_const1(self) -> bool:
        return self.bits == FULL

    def value_at(self, minterm: int) -> int:
        return (self.bits >> (minterm & (WORD_BITS - 1))) & 1

    def cofactor(self, var: int, value: int) -> "TruthTable":
        m = VAR_MASKS[var]
        period = 1 << var
        if value:
            d = self.bits & m
            d |= d >> period
        else:
            d = self.bits & ~m
            d |= d << period
        return TruthTable(d & FULL, self.var_count)

    def depends_on(self, var: int) -> bool:
        return self.cofactor(var, 0).bits != self.cofactor(var, 1).bits

    def support(self) -> list[int]:
        return [i for i in range(self.var_count) if self.depends_on(i)]

    def shrink_to_support(self) -> tuple["TruthTable", list[int]]:
        """Re-express over support variables only; returns (table, support)."""
        sup = self.support()
        if len(sup) == self.var_count:
            return self, sup
        bits = 0
        for m in range(1 << len(sup)):
            full = 0
            for j, v in enumerate(sup):
                if (m >> j) & 1:
                    full |= 1 << v
            if self.value_at(full):
                bits |= 1 << m
        return TruthTable.create(bits, len(sup)), sup

    def popcount(self) -> int:
        span = 1 << self.var_count
        return bin(self.bits & ((1 << span) - 1)).count("1")

    def hex(self) -> str:
        span = 1 << self.var_count
        digits = max(1, span // 4)
        return f"0x{self.bits & ((1 << span) - 1):0{digits}x}"

    @staticmethod
    def from_hex(text: str, var_count: int) -> "TruthTable":
        return TruthTable.create(int(text, 16), var_count)


def maj_tt(a: TruthTable, b: TruthTable, c: TruthTable) -> TruthTable:
    return (a & b) | (a & c) | (b & c)


# -- irredundant sum of products (Minato-Morreale) ------------------------


class Cube(NamedTuple):
    pos: int  # mask of positive literals
    neg: int  # mask of negative literals

    def evaluate(self, var_count: int) -> TruthTable:
        t = TruthTable.const(True, var_count)
        for i in range(var_count):
            if (self.pos >> i) & 1:
                t = t & TruthTable.var(i, var_count)
            elif (self.neg >> i) & 1:
                t = t & ~TruthTable.var(i, var_count)
        return t

    def num_literals(self) -> int:
        return bin(self.pos | self.neg).count("1")


def evaluate_cubes(cubes: list[Cube], var_count: int) -> TruthTable:
    t = TruthTable.const(False, var_count)
    for c in cubes:
        t = t | c.evaluate(var_count)
    return t


def isop(tt: TruthTable) -> list[Cube]:
    """Irredundant SOP covering tt exactly (on-set = off-set complement)."""
    cubes, _ = _isop_rec(tt, tt, tt.var_count)
    return cubes


def _isop_rec(f_on: TruthTable, f_dc_upper: TruthTable, nvars: int):
    """Minato-Morreale recursion on interval [f_on, f_dc_upper].

    Returns (cubes, cover_tt) with f_on <= cover <= f_dc_upper.
    """
    if f_on.is_const0():
        return [], TruthTable.const(False, nvars)
    if f_dc_upper.is_const1():
        return [Cube(0, 0)], TruthTable.const(True, nvars)
    # top variable in either table's support
    var = -1
    for i in reversed(range(nvars)):
        if f_on.depends_on(i) or f_dc_upper.depends_on(i):
            var = i
            break
    if var < 0:
        # constant interval: f_on == 0 handled above, f_dc allows 1
        return [Cube(0, 0)], TruthTable.const(True, nvars)

    on0, on1 = f_on.cofactor(var, 0), f_on.cofactor(var, 1)
    up0, up1 = f_dc_upper.cofactor(var, 0), f_dc_upper.cofactor(var, 1)

    c0, cov0 = _isop_rec(on0 & ~up1, up0, nvars)
    c1, cov1 = _isop_rec(on1 & ~up0, up1, nvars)
    rem = (on0 & ~cov0) | (on1 & ~cov1)
    c2, cov2 = _isop_rec(rem, up0 & up1, nvars)

    vbit = 1 << var
    cubes = ([Cube(c.pos, c.neg | vbit) for c in c0]
             + [Cube(c.pos | vbit, c.neg) for c in c1]
             + c2)
    vt = TruthTable.var(var, nvars)
    cover = (cov0 & ~vt) | (cov1 & vt) | cov2
    return cubes, cover


# -- disjoint-support decomposition ---------------------------------------


class DsdNode:
    """Tree node: op in {AND, OR, XOR, MAJ, PRIME, LIT}."""

    def __init__(self, op: str, children: Optional[list] = None,
                 var: Optional[int] = None, neg: bool = False,
                 table: Optional[TruthTable] = None,
                 leaf_vars: Optional[list[int]] = None):
        self.op = op
        self.children = children or []
        self.var = var
        self.neg = neg
        self.table = table          # PRIME residual function
        self.leaf_vars = leaf_vars  # PRIME child variable order

    def evaluate(self, var_count: int) -> TruthTable:
        if self.op == "LIT":
            t = TruthTable.var(self.var, var_count)
        elif self.op == "AND":
            t = TruthTable.const(True, var_count)
            for c in self.children:
                t = t & c.evaluate(var_count)
        elif self.op == "OR":
            t = TruthTable.const(False, var_count)
            for c in self.children:
                t = t | c.evaluate(var_count)
        elif self.op == "XOR":
            t = TruthTable.const(False, var_count)
            for c in self.children:
                t = t ^ c.evaluate(var_count)
        elif self.op == "MAJ":
            a, b, c = (ch.evaluate(var_count) for ch in self.children)
            t = maj_tt(a, b, c)
        elif self.op == "PRIME":
            kids = [c.evaluate(var_count) for c in self.children]
            t = TruthTable.const(False, var_count)
            span = 1 << self.table.var_count
            for m in range(span):
                if self.table.value_at(m):
                    term = TruthTable.const(True, var_count)
                    for j, kv in enumerate(kids):
                        term = term & (kv if (m >> j) & 1 else ~kv)
                    t = t | term
        else:
            raise ValueError(self.op)
        return ~t if self.neg else t

    def is_prime_over_all(self) -> bool:
        return self.op == "PRIME" and all(c.op == "LIT" for c in self.children)


NON_DECOMPOSABLE = "non-decomposable"


def dsd_decompose(tt: TruthTable) -> Union[DsdNode, str]:
    """Disjoint-support decomposition by single-variable peeling.

    Returns a DsdNode tree, or NON_DECOMPOSABLE when the function is a
    prime block over all of its support variables.
    """
    small, sup = tt.shrink_to_support()
    node = _dsd_rec(small)
    node = _relabel(node, sup)
    if node.is_prime_over_all() and len(sup) == tt.var_count and len(sup) > 1:
        return NON_DECOMPOSABLE
    return node


def _relabel(node: DsdNode, sup: list[int]) -> DsdNode:
    if node.op == "LIT":
        node.var = sup[node.var]
    for c in node.children:
        _relabel(c, sup)
    return node


def _dsd_rec(tt: TruthTable) -> DsdNode:
    sup = tt.support()
    if not sup:
        # constant: encode as PRIME with no children
        return DsdNode("PRIME", [], table=tt, neg=False)
    if len(sup) == 1:
        v = sup[0]
        pos = TruthTable.var(v, tt.var_count)
        return DsdNode("LIT", var=v, neg=(tt.bits == (~pos).bits))
    for v in sup:
        c0, c1 = tt.cofactor(v, 0), tt.cofactor(v, 1)
        lit = DsdNode("LIT", var=v)
        if c0.is_const0():
            return _merge("AND", lit, _dsd_rec(c1))
        if c1.is_const0():
            return _merge("AND", DsdNode("LIT", var=v, neg=True), _dsd_rec(c0))
        if c0.is_const1():
            return _merge("OR", DsdNode("LIT", var=v, neg=True), _dsd_rec(c1))
        if c1.is_const1():
            return _merge("OR", lit, _dsd_rec(c0))
        if c0.bits == (~c1).bits:
            sub = _dsd_rec(c0)
            node = _merge("XOR", lit, sub)
            return node
    maj = _try_maj(tt, sup)
    if maj is not None:
        return maj
    kids = [DsdNode("LIT", var=v) for v in sup]
    small, _ = tt.shrink_to_support()
    return DsdNode("PRIME", kids, table=small)


def _merge(op: str, lit: DsdNode, sub: DsdNode) -> DsdNode:
    if op == "XOR" and sub.neg:
        sub.neg = False
        return DsdNode("XOR", [lit, sub], neg=True)
    if sub.op == op and not sub.neg:
        return DsdNode(op, [lit] + sub.children)
    return DsdNode(op, [lit, sub])


def _try_maj(tt: TruthTable, sup: list[int]) -> Optional[DsdNode]:
    if len(sup) != 3:
        return None
    a, b, c = (TruthTable.var(v, tt.var_count) for v in sup)
    for na in (False, True):
        for nb in (False, True):
            for nc in (False, True):
                m = maj_tt(~a if na else a, ~b if nb else b, ~c if nc else c)
                if m.bits == tt.bits:
                    return DsdNode("MAJ", [
                        DsdNode("LIT", var=sup[0], neg=na),
                        DsdNode("LIT", var=sup[1], neg=nb),
                        DsdNode("LIT", var=sup[2], neg=nc)])
    return None


# -- cut functions ---------------------------------------------------------


class InvalidCut(Exception):
    pass


_FLIP = (0, FULL)  # word to xor in, by complement flag


def cut_truth(net, root: int, leaves: list[int]) -> TruthTable:
    """Truth table of `root` as a function of `leaves` (sorted order).

    Collects the cone above the leaves, then evaluates it in ascending id
    order, which is topological (a gate is added after its fanins), on
    padded words; one TruthTable is built at the end."""
    v = len(leaves)
    if v > MAX_VARS:
        raise InvalidCut(f"cut has {v} leaves (max {MAX_VARS})")
    memo = dict(zip(leaves, VAR_MASKS))
    memo[0] = 0
    cone: dict = {}  # gate between root and leaves -> its fanins
    stack = [root]
    while stack:
        n = stack.pop()
        if n not in memo and n not in cone:
            fs = net.fanins(n)
            if not fs:
                raise InvalidCut(f"leaf set does not cut off node {n}")
            cone[n] = fs
            stack += [f.node for f in fs]
    kind = net.kind
    for n in sorted(cone):
        ins = [memo[m] ^ _FLIP[neg] for m, neg in cone[n]]
        k = kind(n)
        if k == "and2":
            memo[n] = ins[0] & ins[1]
        elif k == "xor2":
            memo[n] = ins[0] ^ ins[1]
        else:
            a, b, c = ins
            memo[n] = (a & b) | (a & c) | (b & c)
    return TruthTable(memo[root], v)
