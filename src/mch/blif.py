"""BLIF writer for LUT netlists, a small reader for round-trip checks,
and a structural gate-level writer for cell netlists."""

from .tt import TruthTable, isop
from .mapper import MappedNetlist, LUT, CELL


class BlifError(Exception):
    pass


def _names(m: MappedNetlist):
    sig = {i: f"i{i}" for i in range(m.n_pis)}
    for inst in m.instances:
        sig[inst.out] = f"n{inst.out}"
    return sig


def write_blif(m: MappedNetlist, path, model: str = "top") -> None:
    """One `.names` table per LUT; negated outputs get an inverter table."""
    if m.target != LUT:
        raise BlifError("only LUT netlists can be written as BLIF; "
                        "use write_verilog_structural for cell netlists")
    sig = _names(m)
    onames = [f"o{j}" for j in range(len(m.outputs))]
    lines = [f".model {model}",
             ".inputs " + " ".join(sig[i] for i in range(m.n_pis)),
             ".outputs " + " ".join(onames)]
    for inst in m.instances:
        v = len(inst.ins)
        lines.append(".names " + " ".join(sig[i] for i in inst.ins) +
                     (" " if v else "") + sig[inst.out])
        for cube in isop(TruthTable.create(inst.tt.bits, v)):
            row = "".join("1" if (cube.pos >> i) & 1 else
                          "0" if (cube.neg >> i) & 1 else "-"
                          for i in range(v))
            lines.append(f"{row} 1" if v else "1")
    for j, (oid, neg) in enumerate(m.outputs):
        src = sig[oid]
        if neg:
            lines.append(f".names {src} {onames[j]}")
            lines.append("0 1")
        else:
            lines.append(f".names {src} {onames[j]}")
            lines.append("1 1")
    lines.append(".end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class BlifModel:
    """Parsed single-model BLIF, just enough to simulate."""

    def __init__(self):
        self.name = ""
        self.inputs: list = []
        self.outputs: list = []
        self.tables: list = []  # (input names, output name, cube rows)

    def simulate(self, pi_words: list, width: int) -> list:
        mask = (1 << width) - 1
        val = dict(zip(self.inputs, (w & mask for w in pi_words)))
        for ins, out, rows in self.tables:
            acc = 0
            for row, bit in rows:
                if bit != "1":
                    raise BlifError("off-set tables are not supported")
                term = mask
                for ch, name in zip(row, ins):
                    if ch == "1":
                        term &= val[name]
                    elif ch == "0":
                        term &= val[name] ^ mask
                acc |= term
            val[out] = acc
        return [val[o] for o in self.outputs]


def read_blif(path) -> BlifModel:
    model = BlifModel()
    cur = None  # pending (ins, out, rows)
    with open(path) as fh:
        raw = fh.read()
    # join continuation lines, drop comments
    text = raw.replace("\\\n", " ")
    for ln, line in enumerate(text.split("\n"), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == ".model":
            model.name = tok[1] if len(tok) > 1 else ""
        elif tok[0] == ".inputs":
            model.inputs.extend(tok[1:])
        elif tok[0] == ".outputs":
            model.outputs.extend(tok[1:])
        elif tok[0] == ".names":
            if cur is not None:
                model.tables.append(cur)
            if len(tok) < 2:
                raise BlifError(f"line {ln}: .names needs an output")
            cur = (tok[1:-1], tok[-1], [])
        elif tok[0] == ".end":
            break
        elif tok[0].startswith("."):
            raise BlifError(f"line {ln}: unsupported construct {tok[0]}")
        else:
            if cur is None:
                raise BlifError(f"line {ln}: cube row outside .names")
            if len(tok) == 1 and not cur[0]:
                cur[2].append(("", tok[0]))
            elif len(tok) == 2:
                if len(tok[0]) != len(cur[0]):
                    raise BlifError(f"line {ln}: cube arity mismatch")
                cur[2].append((tok[0], tok[1]))
            else:
                raise BlifError(f"line {ln}: malformed cube row")
    if cur is not None:
        model.tables.append(cur)
    return model


def write_verilog_structural(m: MappedNetlist, path,
                             module: str = "top") -> None:
    """Gate-level netlist of named cell instances for cell-mapped results."""
    if m.target != CELL:
        raise BlifError("structural netlist output is for cell netlists")
    sig = _names(m)
    onames = [f"o{j}" for j in range(len(m.outputs))]
    lines = [f"module {module} ("
             + ", ".join([sig[i] for i in range(m.n_pis)] + onames) + ");"]
    lines.append("  input " + ", ".join(sig[i] for i in range(m.n_pis)) + ";"
                 if m.n_pis else "  // no inputs")
    lines.append("  output " + ", ".join(onames) + ";")
    wires = [sig[inst.out] for inst in m.instances]
    if wires:
        lines.append("  wire " + ", ".join(wires) + ";")
    for idx, inst in enumerate(m.instances):
        pins = ", ".join([sig[i] for i in inst.ins] + [sig[inst.out]])
        lines.append(f"  {inst.cell} u{idx} ({pins});")
    for j, (oid, neg) in enumerate(m.outputs):
        if neg:
            raise BlifError("cell netlists must drive outputs in phase")
        lines.append(f"  assign {onames[j]} = {sig[oid]};")
    lines.append("endmodule")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
