"""Synthesis-strategy library: NPN4 structure database plus area-oriented
procedural resynthesis (ISOP factoring and DSD lowering).

Every structure is a LogicNetwork whose PIs are its inputs and whose one
PO is its output.  An NPN4 template has four PIs and realizes its class
representative; a Candidate's network has one PI per support variable of
the function it was generated for.  `LogicNetwork.insert` places either
into a host network.

The database is built (`build_npn4_db`) by bounded exhaustive enumeration
of primitive trees (up to 7 gates) over each enabled representation's gate
set; classes the enumeration cannot reach within the bound are filled by
ISOP factoring.  The package ships it as `data/npn4.db` and only reads it.
A database file is parsed lazily: a class's lines become template networks
on its first query, each checked against its class representative and its
recorded depth and gate count.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import network as nw
from .network import LogicNetwork, Signal
from .npn import npn_canonize, npn_classify_all4
from .tt import Cube, DsdNode, TruthTable, dsd_decompose, isop, maj_tt

MAX_TEMPLATE_GATES = 7

VAR16 = (0xAAAA, 0xCCCC, 0xF0F0, 0xFF00)

_MAJ_PAIR_CAP = 200_000
_CHUNK = 4_000_000


# -- bounded tree enumeration over 4-var functions -------------------------


def tree_reachability(ops, max_size: int = MAX_TEMPLATE_GATES):
    """Minimal primitive-tree size per 16-bit function, via frontier DP.

    Frontier sets are closed under complement (inverters are free edges),
    so reachability is closed under the whole NPN group.
    """
    minsize = np.full(65536, 255, dtype=np.uint8)
    base = [0, 0xFFFF]
    for v in VAR16:
        base.append(v)
        base.append(v ^ 0xFFFF)
    frontier0 = np.unique(np.array(base, dtype=np.int64))
    minsize[frontier0] = 0
    frontiers = [frontier0]
    seen = np.zeros(65536, dtype=bool)
    seen[frontier0] = True

    for s in range(1, max_size + 1):
        hit = np.zeros(65536, dtype=bool)

        def mark(arr):
            hit[arr] = True
            hit[arr ^ 0xFFFF] = True

        for s1 in range((s - 1) // 2 + 1):
            s2 = s - 1 - s1
            A, B = frontiers[s1], frontiers[s2]
            if len(A) == 0 or len(B) == 0:
                continue
            for op in ops:
                if op == nw.MAJ3:
                    continue
                for a_chunk in _chunks(A, max(1, _CHUNK // max(1, len(B)))):
                    prod = a_chunk[:, None]
                    if op == nw.AND2:
                        mark((prod & B[None, :]).ravel())
                    else:
                        mark((prod ^ B[None, :]).ravel())
        if nw.MAJ3 in ops:
            for s1, s2, s3 in _maj_splits(s - 1):
                A, B, C = frontiers[s1], frontiers[s2], frontiers[s3]
                if min(len(A), len(B), len(C)) == 0:
                    continue
                if len(A) * len(B) > _MAJ_PAIR_CAP:
                    continue
                for a in A:
                    a = int(a)
                    for b in B:
                        mark(maj_tt(a, int(b), C))
        new = np.nonzero(hit & ~seen)[0].astype(np.int64)
        seen[new] = True
        minsize[new] = s
        frontiers.append(new)
    return minsize, frontiers


def _chunks(arr, n):
    for i in range(0, len(arr), n):
        yield arr[i:i + n]


def _maj_splits(total):
    out = []
    for s1 in range(total + 1):
        for s2 in range(s1, total + 1):
            s3 = total - s1 - s2
            if s3 >= s2:
                out.append((s1, s2, s3))
    return out


# structure trees: ('const', neg) | ('in', idx, neg) | (kind, children, neg)


def reconstruct(f: int, ops, minsize, frontiers):
    """Minimal-size tree for function f, preferring balanced splits."""
    memo: dict[int, tuple] = {}

    def solve(f):
        got = memo.get(f)
        if got is not None:
            return got
        s = int(minsize[f])
        if s == 255:
            raise ValueError(f"function 0x{f:04x} not reachable")
        if s == 0:
            if f == 0:
                node = ("const", False)
            elif f == 0xFFFF:
                node = ("const", True)
            else:
                for i, v in enumerate(VAR16):
                    if f == v:
                        node = ("in", i, False)
                        break
                    if f == (v ^ 0xFFFF):
                        node = ("in", i, True)
                        break
            memo[f] = node
            return node
        splits = sorted(((s1, s - 1 - s1) for s1 in range((s - 1) // 2 + 1)),
                        key=lambda p: max(p))
        for s1, s2 in splits:
            A, B = frontiers[s1], frontiers[s2]
            if len(A) == 0 or len(B) == 0:
                continue
            for out_neg in (False, True):
                t = f ^ (0xFFFF if out_neg else 0)
                for op in ops:
                    if op == nw.MAJ3:
                        continue
                    if op == nw.AND2:
                        viable = A[(t & ~A & 0xFFFF) == 0]
                        for g in viable:
                            g = int(g)
                            hs = B[(g & B) == t]
                            if len(hs):
                                node = (op, [solve(g), solve(int(hs[0]))],
                                        out_neg)
                                memo[f] = node
                                return node
                    else:
                        hs = (t ^ A) & 0xFFFF
                        ok = A[minsize[hs] == s2]
                        if len(ok):
                            g = int(ok[0])
                            node = (op, [solve(g), solve((t ^ g) & 0xFFFF)],
                                    out_neg)
                            memo[f] = node
                            return node
        if nw.MAJ3 in ops:
            trip = sorted(_maj_splits(s - 1), key=lambda p: max(p))
            for s1, s2, s3 in trip:
                A, B, C = frontiers[s1], frontiers[s2], frontiers[s3]
                if min(len(A), len(B), len(C)) == 0:
                    continue
                for out_neg in (False, True):
                    t = f ^ (0xFFFF if out_neg else 0)
                    for g in A:
                        g = int(g)
                        for h in B:
                            h = int(h)
                            cs = C[maj_tt(g, h, C) == t]
                            if len(cs):
                                node = (nw.MAJ3,
                                        [solve(g), solve(h),
                                         solve(int(cs[0]))], out_neg)
                                memo[f] = node
                                return node
        raise ValueError(f"no decomposition found for 0x{f:04x}")

    return solve(f)


# -- structure templates ---------------------------------------------------


def _new_template(tag: str):
    net = LogicNetwork(tag)
    return net, [net.add_pi() for _ in range(4)]


def _tree_template(tag: str, tree) -> LogicNetwork:
    net, pis = _new_template(tag)

    def emit(nd) -> Signal:
        if nd[0] == "const":
            return Signal(0, nd[1])
        if nd[0] == "in":
            return pis[nd[1]].with_neg(nd[2])
        kind, children, neg = nd
        return net.add(kind, [emit(c) for c in children]).with_neg(neg)

    net.add_po(emit(tree))
    return net


def _isop_template(tag: str, rep: int) -> LogicNetwork:
    """Fallback template for classes outside the enumeration bound."""
    net, pis = _new_template(tag)
    net.add_po(_factor(net, isop(TruthTable.create(rep, 4)), pis))
    return net


# Database text of a template: kind(a,b) tokens over t0..t3 / g0.., '!' =
# complement; a '!' prefix on the last gate token complements the output.
# A gate-free template is "const0" or "buf(tI)", optionally complemented.


def _template_text(tpl: LogicNetwork) -> str:
    """Text of a compacted template, whose output is its last gate if it
    has any."""
    names = {pi: f"t{i}" for i, pi in enumerate(tpl.pis)}
    toks = []
    for g in tpl.gates():
        names[g] = f"g{len(toks)}"
        args = ",".join(("!" if f.neg else "") + names[f.node]
                        for f in tpl.fanins(g))
        toks.append(f"{tpl.kind(g)}({args})")
    out = tpl.outputs[0]
    neg = "!" if out.neg else ""
    if out.node == 0:
        return f"{neg}const0"
    if not toks:
        return f"{neg}buf({names[out.node]})"
    toks[-1] = neg + toks[-1]
    return ",".join(toks)


def _parse_template(tag: str, rep: int, where: str, depth: str, size: str,
                    text: str) -> LogicNetwork:
    """Build one database line's template and check it against the line;
    any fault raises ValueError naming `where`."""
    net, vals = _new_template(tag)

    def ref(tok: str) -> Signal:
        # t0..t3 name the inputs, gI the line's I-th gate
        name = tok.removeprefix("!")
        kind, num = name[:1], name[1:]
        limit = {"t": 4, "g": len(vals) - 4}.get(kind, 0)
        if not (num.isascii() and num.isdigit() and int(num) < limit):
            raise ValueError(f"{where}: bad reference {tok!r}")
        return vals[int(num) + (4 if kind == "g" else 0)].with_neg(
            name != tok)

    body = text.lstrip("!")
    out_neg = text.startswith("!")
    tokens = 0
    if body.startswith("const0"):
        out = net.const0
    elif body.startswith("buf("):
        out = ref(body[4:-1])
    else:
        for tok in text.split("),"):
            if not tok.endswith(")"):
                tok += ")"
            if tok.startswith("!"):
                out_neg = True
                tok = tok[1:]
            kind, _, args = tok.partition("(")
            try:
                vals.append(net.add(kind, [ref(a) for a in
                                           args[:-1].split(",")]))
            except nw.NetworkError as e:
                raise ValueError(f"{where}: {e}") from None
            tokens += 1
        out = vals[-1]
    net.add_po(out.with_neg(out_neg))
    if not (depth.isascii() and depth.isdigit()
            and size.isascii() and size.isdigit()):
        raise ValueError(f"{where}: depth {depth!r} and size {size!r} must "
                         f"be whole numbers")
    if int(size) != tokens:
        raise ValueError(f"{where}: size {size} but {tokens} gates")
    if int(depth) != net.compute_levels().network_level:
        raise ValueError(f"{where}: depth {depth} does not match its gates")
    if net.exhaustive_outputs()[0] != rep:
        raise ValueError(f"{where}: structure does not realize 0x{rep:04x}")
    return net


# -- strategy library ------------------------------------------------------


class StrategyLibrary:
    """NPN4 templates per representation and class representative.

    A library read by load_db holds each class's database lines in
    `lines`; templates_for builds and checks a class's templates on its
    first query and caches them in `npn4`.
    """

    def __init__(self, enabled):
        self.enabled = tuple(enabled)
        self.npn4: dict[str, dict[int, list[LogicNetwork]]] = {
            tag: {} for tag in self.enabled}
        self.lines: dict[str, dict[int, list[tuple]]] = {
            tag: {} for tag in self.enabled}
        self.query_cache: dict[tuple, tuple] = {}

    def classes(self, tag: str) -> list[int]:
        return sorted(self.npn4[tag].keys() | self.lines[tag].keys())

    def templates_for(self, tag: str, canon_bits16: int) -> list:
        db = self.npn4.get(tag)
        if db is None:
            return []
        rep = canon_bits16 & 0xFFFF
        tpls = db.get(rep)
        if tpls is None:
            tpls = db[rep] = [_parse_template(tag, rep, *line)
                              for line in self.lines[tag].get(rep, ())]
        return tpls


def build_npn4_db(enabled=(nw.AIG, nw.XAG, nw.MIG, nw.XMG)
                  ) -> StrategyLibrary:
    """Enumerate templates for all 222 NPN classes per representation."""
    lib = StrategyLibrary(enabled)
    reps = np.unique(npn_classify_all4())
    for tag in enabled:
        # GATE_KINDS order, not a set's per-process one, picks the templates
        ops = [k for k in nw.GATE_KINDS if k in nw.ALLOWED_KINDS[tag]]
        minsize, frontiers = tree_reachability(ops)
        for rep in reps:
            rep = int(rep)
            if minsize[rep] != 255:
                tpl = _tree_template(
                    tag, reconstruct(rep, ops, minsize, frontiers))
            else:
                tpl = _isop_template(tag, rep)
            if tpl.exhaustive_outputs()[0] != rep:
                raise AssertionError(
                    f"template for class 0x{rep:04x} ({tag}) is wrong")
            lib.npn4[tag][rep] = [tpl]
    return lib


# -- db persistence --------------------------------------------------------

DB_HEADER = "npn4-db v1"


def save_db(lib: StrategyLibrary, path) -> None:
    with open(path, "w") as fh:
        fh.write(DB_HEADER + "\n")
        for tag in lib.enabled:
            for rep in lib.classes(tag):
                for tpl in lib.templates_for(tag, rep):
                    tpl = tpl.compact()
                    fh.write(f"0x{rep:04x} {tag} "
                             f"{tpl.compute_levels().network_level} "
                             f"{tpl.num_gates()} {_template_text(tpl)}\n")


def load_db(path) -> StrategyLibrary:
    """Read a database file.  Lines are only split here; each class is
    built and checked on its first query."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != DB_HEADER:
            raise ValueError(f"bad database header {header!r}")
        entries = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(" ", 4)
            if len(parts) != 5:
                raise ValueError(f"{path}:{lineno}: expected "
                                 f"'class tag depth size structure'")
            try:
                rep = int(parts[0], 16)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad class field "
                                 f"{parts[0]!r}") from None
            if parts[1] not in nw.ALLOWED_KINDS:
                raise ValueError(f"{path}:{lineno}: unknown representation "
                                 f"{parts[1]!r}")
            entries.append((rep, parts[1], f"{path}:{lineno}", *parts[2:]))
    lib = StrategyLibrary(dict.fromkeys(e[1] for e in entries))
    for rep, tag, *line in entries:
        lib.lines[tag].setdefault(rep, []).append(line)
    return lib


DB_PATH = Path(__file__).parent / "data" / "npn4.db"
_default_lib: Optional[StrategyLibrary] = None


def default_library() -> StrategyLibrary:
    """The bundled all-representation database at DB_PATH, read on first
    use; `build_npn4_db` generates its templates."""
    global _default_lib
    if _default_lib is None:
        _default_lib = load_db(DB_PATH)
    return _default_lib


# -- candidate generation --------------------------------------------------


class Candidate(NamedTuple):
    strategy: str
    size: int
    depth: int
    support: tuple         # original variable indices, in input order
    walk: nw.Walk          # one input per support leaf, one output


def _candidate(host_tag: str, sup, strategy: str, build) -> Candidate:
    """A candidate network over len(sup) PIs whose PO build(net, pis)
    emits."""
    net = LogicNetwork(host_tag)
    net.add_po(build(net, [net.add_pi() for _ in sup]))
    return Candidate(strategy, net.num_gates(),
                     net.compute_levels().network_level, tuple(sup),
                     net.compile())


def _distinct(cands: list, order) -> tuple:
    """cands sorted by `order`, keeping the first of each group with the
    same gates, outputs and support: inserting a later one over the same
    leaves rebuilds only what strash already holds."""
    first: dict = {}
    for c in sorted(cands, key=order):
        first.setdefault((c.walk, c.support), c)
    return tuple(first.values())


class _NpnBinding(NamedTuple):
    """How a function of at most 4 inputs reads its NPN4 class template:
    template input j is function input ins[j][0] (None: constant 0),
    complemented when ins[j][1]; the template output is complemented when
    out_neg."""
    rep: int           # NPN class representative
    ins: tuple
    out_neg: bool

    def place(self, net: LogicNetwork, tpl: LogicNetwork,
              inputs: list[Signal]) -> Signal:
        leaves = [Signal(0, neg) if i is None else inputs[i].with_neg(neg)
                  for i, neg in self.ins]
        return net.insert(tpl, leaves)[0].with_neg(self.out_neg)


def _npn_binding(table: TruthTable, n_inputs: int) -> _NpnBinding:
    canon, tr = npn_canonize(TruthTable.create(table.bits, 4))
    inv = tr.inverse()
    ins = tuple((inv.perm[j] if inv.perm[j] < n_inputs else None,
                 bool((inv.neg >> j) & 1)) for j in range(4))
    return _NpnBinding(canon.bits, ins, bool(inv.out_neg))


def level_oriented_candidates(lib: StrategyLibrary, tt: TruthTable,
                              host_tag: str = nw.XMG) -> tuple[Candidate, ...]:
    """NPN4-database candidates, ordered by (depth, size) and structurally
    distinct (`_distinct`); built once per query and cached in the library.

    Functions whose support exceeds 4 variables yield no candidates.
    """
    ckey = ("lvl", tt.bits, tt.var_count, host_tag)
    hit = lib.query_cache.get(ckey)
    if hit is not None:
        return hit
    small, sup = tt.shrink_to_support()
    out = []
    if len(sup) <= 4:
        b = _npn_binding(small, len(sup))
        for tag in lib.enabled:
            if not nw.ALLOWED_KINDS[tag] <= nw.ALLOWED_KINDS[host_tag]:
                continue
            for tpl in lib.templates_for(tag, b.rep):
                out.append(_candidate(
                    host_tag, sup, f"npn4-{tag}",
                    lambda net, pis: b.place(net, tpl, pis)))
    out = lib.query_cache[ckey] = _distinct(
        out, lambda c: (c.depth, c.size, c.strategy))
    return out


def area_oriented_candidates(lib: StrategyLibrary, tt: TruthTable,
                             host_tag: str = nw.XMG) -> tuple[Candidate, ...]:
    """ISOP-factoring and DSD-lowering candidates, ordered by (size, depth)
    and structurally distinct; built once per query and cached."""
    ckey = ("area", tt.bits, tt.var_count, host_tag)
    hit = lib.query_cache.get(ckey)
    if hit is not None:
        return hit
    small, sup = tt.shrink_to_support()
    out = [_candidate(host_tag, sup, "isop-factor",
                      lambda net, pis: _factor(net, isop(small), pis))]
    dsd = dsd_decompose(small)
    if isinstance(dsd, DsdNode):
        out.append(_candidate(host_tag, sup, "dsd",
                              lambda net, pis: _build_dsd(net, dsd, pis, lib)))
    out = lib.query_cache[ckey] = _distinct(
        out, lambda c: (c.size, c.depth, c.strategy))
    return out


# -- lowering helpers ------------------------------------------------------


def _factor(net: LogicNetwork, cubes: list[Cube], pis: list[Signal]) -> Signal:
    """Literal-based quick factoring of an SOP over pis, emitted into net
    as balanced AND/OR trees."""
    if not cubes:
        return net.const0
    if any(c.num_literals() == 0 for c in cubes):
        return net.const1
    nvars = len(pis)
    if len(cubes) == 1:
        c = cubes[0]
        lits = [pis[i] for i in range(nvars) if (c.pos >> i) & 1]
        lits += [~pis[i] for i in range(nvars) if (c.neg >> i) & 1]
        return _reduce_balanced(net, lits, "and")
    best, best_count = None, 1
    for i in range(nvars):
        for neg in (False, True):
            cnt = sum(1 for c in cubes
                      if ((c.neg if neg else c.pos) >> i) & 1)
            if cnt > best_count:
                best, best_count = (i, neg), cnt
    if best is None:
        return _reduce_balanced(net, [_factor(net, [c], pis) for c in cubes],
                                "or")
    i, neg = best
    bit = 1 << i
    inside, rest = [], []
    for c in cubes:
        if ((c.neg if neg else c.pos) >> i) & 1:
            inside.append(Cube(c.pos & ~bit, c.neg & ~bit))
        else:
            rest.append(c)
    branch = net.add_and(pis[i].with_neg(neg), _factor(net, inside, pis))
    if not rest:
        return branch
    return net.add_or(branch, _factor(net, rest, pis))


def _reduce_balanced(net: LogicNetwork, sigs: list[Signal],
                     op: str) -> Signal:
    sigs = list(sigs)
    while len(sigs) > 1:
        nxt = []
        for i in range(0, len(sigs) - 1, 2):
            a, b = sigs[i], sigs[i + 1]
            if op == "and":
                nxt.append(net.add_and(a, b))
            elif op == "or":
                nxt.append(net.add_or(a, b))
            else:
                nxt.append(_emit_xor(net, a, b))
        if len(sigs) % 2:
            nxt.append(sigs[-1])
        sigs = nxt
    return sigs[0]


def _emit_xor(net: LogicNetwork, a: Signal, b: Signal) -> Signal:
    if nw.XOR2 in nw.ALLOWED_KINDS[net.tag]:
        return net.add_xor(a, b)
    return net.add_or(net.add_and(a, ~b), net.add_and(~a, b))


def _emit_maj(net: LogicNetwork, a: Signal, b: Signal, c: Signal) -> Signal:
    if nw.MAJ3 in nw.ALLOWED_KINDS[net.tag]:
        return net.add_maj(a, b, c)
    return net.add_or(net.add_and(a, b),
                      net.add_and(c, net.add_or(a, b)))


def _build_dsd(net: LogicNetwork, node: DsdNode, pis: list[Signal],
               lib: StrategyLibrary) -> Signal:
    if node.op == "LIT":
        s = pis[node.var]
        return ~s if node.neg else s
    kids = [_build_dsd(net, c, pis, lib) for c in node.children]
    if node.op in ("AND", "OR", "XOR"):
        out = _reduce_balanced(net, kids, node.op.lower())
    elif node.op == "MAJ":
        out = _emit_maj(net, *kids)
    elif node.table is None or node.table.var_count == 0:
        # PRIME: children are literals in this decomposition
        table = node.table
        out = net.const1 if (table and table.value_at(0)) else net.const0
    else:
        out = _resynthesize_prime(net, node.table, kids, lib)
    return ~out if node.neg else out


def _resynthesize_prime(net: LogicNetwork, table: TruthTable,
                        inputs: list[Signal], lib: StrategyLibrary) -> Signal:
    """The first template of the first enabled representation the host
    allows, else ISOP factoring."""
    if table.var_count <= 4:
        b = _npn_binding(table, len(inputs))
        for tag in lib.enabled:
            if not nw.ALLOWED_KINDS[tag] <= nw.ALLOWED_KINDS[net.tag]:
                continue
            tpls = lib.templates_for(tag, b.rep)
            if tpls:
                return b.place(net, tpls[0], inputs)
    return _factor(net, isop(table), inputs)
