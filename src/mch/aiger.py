"""AIGER reader and writer (combinational subset, ascii and binary).

The ascii format ("aag") lists literals in clear text; the binary format
("aig") stores each AND gate as two variable-length deltas.  Latches are
not supported: files declaring any are rejected.
"""

from . import network as nw
from .network import LogicNetwork, Signal


class AigerError(Exception):
    pass


def write_aiger(net: LogicNetwork, path, binary=None) -> None:
    """Write an AND-only network; format chosen by extension unless forced.
    Its variables are the slots of the network's walk (`compile`): the
    PIs, then the gates in id order."""
    if binary is None:
        binary = not str(path).endswith(".aag")
    walk = net.compile()
    for kind in walk.kinds:
        if kind != nw.AND2:
            raise AigerError(f"cannot write {kind} gate; AIGER is AND-only")
    n_in, n_and = walk.inputs, len(walk.gates)
    header = f"{n_in + n_and} {n_in} 0 {len(walk.outputs)} {n_and}"
    outs = "".join(f"{lit}\n" for lit in walk.outputs)
    ands = enumerate(((a, b) for _, a, b, _ in walk.gates), n_in + 1)
    if binary:
        with open(path, "wb") as fh:
            fh.write(f"aig {header}\n{outs}".encode())
            for var, (a, b) in ands:
                r0, r1 = max(a, b), min(a, b)
                for delta in (2 * var - r0, r0 - r1):
                    while delta >= 0x80:
                        fh.write(bytes([(delta & 0x7F) | 0x80]))
                        delta >>= 7
                    fh.write(bytes([delta]))
    else:
        with open(path, "w") as fh:
            fh.write(f"aag {header}\n")
            fh.write("".join(f"{2 * v}\n" for v in range(1, n_in + 1)))
            fh.write(outs)
            for var, (a, b) in ands:
                fh.write(f"{2 * var} {a} {b}\n")


def _parse_header(line: str):
    parts = line.split()
    if len(parts) != 6 or parts[0] not in ("aag", "aig"):
        raise AigerError(f"line 1: bad header {line.strip()!r}")
    try:
        m, i, l, o, a = (int(x) for x in parts[1:])
    except ValueError:
        raise AigerError(f"line 1: non-numeric header field in {line!r}")
    if l != 0:
        raise AigerError(f"unsupported: {l} latches declared")
    if m < i + a:
        raise AigerError(f"line 1: header M={m} < I+A={i + a}")
    return parts[0], m, i, o, a


def read_aiger(path) -> LogicNetwork:
    with open(path, "rb") as fh:
        data = fh.read()
    nl = data.find(b"\n")
    if nl < 0:
        raise AigerError("line 1: missing header line")
    fmt, m, n_in, n_out, n_and = _parse_header(data[:nl].decode("ascii",
                                                                "replace"))
    net = LogicNetwork(nw.AIG)
    sig_of = [None] * (m + 1)
    sig_of[0] = net.const0

    def by_lit(lit: int, where: str) -> Signal:
        if lit < 0:
            raise AigerError(f"{where}: invalid literal {lit}")
        if lit > 2 * m + 1:
            raise AigerError(f"{where}: literal {lit} exceeds header bound")
        s = sig_of[lit // 2]
        if s is None:
            raise AigerError(f"{where}: literal {lit} is undefined")
        return ~s if lit & 1 else s

    if fmt == "aag":
        lines = data.decode("ascii", "replace").split("\n")
        ln = 1
        vars_seen = set()
        for k in range(n_in):
            ln += 1
            try:
                lit = int(lines[k + 1].split()[0])
            except (IndexError, ValueError):
                raise AigerError(f"line {ln}: bad input literal")
            if lit & 1 or lit <= 0 or lit > 2 * m or lit // 2 in vars_seen:
                raise AigerError(f"line {ln}: invalid input literal {lit}")
            vars_seen.add(lit // 2)
            sig_of[lit // 2] = net.add_pi()
        out_lits = []
        for k in range(n_out):
            ln += 1
            try:
                lit = int(lines[n_in + k + 1].split()[0])
            except (IndexError, ValueError):
                raise AigerError(f"line {ln}: bad output literal")
            if lit < 0:
                raise AigerError(f"line {ln}: invalid output literal {lit}")
            out_lits.append(lit)
        and_rows = []
        for k in range(n_and):
            ln += 1
            try:
                row = lines[n_in + n_out + k + 1].split()
                lhs, r0, r1 = (int(x) for x in row[:3])
            except (IndexError, ValueError):
                raise AigerError(f"line {ln}: bad AND line")
            if lhs & 1 or lhs // 2 in vars_seen or lhs <= 0 \
                    or lhs > 2 * m:
                raise AigerError(f"line {ln}: invalid AND literal {lhs}")
            vars_seen.add(lhs // 2)
            and_rows.append((ln, lhs, r0, r1))
        # the ascii format leaves the order of AND lines free: each row is
        # added after the rows that define its inputs, by a depth-first
        # walk that meets a row on its own stack only through a cycle
        row_of = {row[1] // 2: row for row in and_rows}
        pending = set()
        for row in and_rows:
            stack = [row]
            while stack:
                ln, lhs, r0, r1 = stack[-1]
                if sig_of[lhs // 2] is not None:
                    stack.pop()
                    continue
                pending.add(lhs // 2)
                dep = [row_of[v] for v in (r0 // 2, r1 // 2)
                       if v in row_of and sig_of[v] is None]
                if dep:
                    if dep[0][1] // 2 in pending:
                        raise AigerError(f"line {ln}: AND literal {lhs} "
                                         f"depends on itself")
                    stack.append(dep[0])
                    continue
                stack.pop()
                pending.discard(lhs // 2)
                sig_of[lhs // 2] = net.add_and(by_lit(r0, f"line {ln}"),
                                               by_lit(r1, f"line {ln}"))
    else:
        for _ in range(n_in):
            v = len(net.pis) + 1
            sig_of[v] = net.add_pi()
        pos = nl + 1
        out_lits = []
        for k in range(n_out):
            end = data.find(b"\n", pos)
            if end < 0:
                raise AigerError(f"offset {pos}: truncated output section")
            try:
                out_lits.append(int(data[pos:end]))
            except ValueError:
                raise AigerError(f"offset {pos}: bad output literal")
            pos = end + 1

        def read_delta(where: int) -> int:
            nonlocal pos
            val, shift = 0, 0
            while True:
                if pos >= len(data):
                    raise AigerError(f"offset {where}: truncated AND section")
                byte = data[pos]
                pos += 1
                val |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    return val
                shift += 7

        for k in range(n_and):
            lhs = (n_in + k + 1) * 2
            here = pos
            d0 = read_delta(here)
            d1 = read_delta(here)
            r0 = lhs - d0
            r1 = r0 - d1
            if r0 < 0 or r1 < 0:
                raise AigerError(f"offset {here}: delta exceeds literal")
            a = by_lit(r0, f"offset {here}")
            b = by_lit(r1, f"offset {here}")
            sig_of[lhs // 2] = net.add_and(a, b)

    for lit in out_lits:
        net.add_po(by_lit(lit, "output section"))
    return net
