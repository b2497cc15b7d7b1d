"""AIGER format reader/writer (ASCII ``.aag`` and binary ``.aig``).

AIGER is the interchange format of the AIG world (ABC, aigtools, the HWMCC
benchmark sets), so supporting it means real sequential designs flow into
the :class:`~repro.circuit.netlist.Netlist` IR without hand conversion.
The dialect implemented here is AIGER 1.9's core circuit subset:

* header ``aag M I L O A`` (ASCII) / ``aig M I L O A`` (binary);
* literals are ``2 * variable + negation``; literal 0 is constant false,
  literal 1 constant true;
* latches are single-clock D flip-flops.  Only reset-to-0 latches are
  accepted (an explicit init field of ``0`` is allowed, anything else
  raises) — the simulator's reset semantics are all-zero state, so
  accepting other init values would silently change ground truth;
* the optional symbol table names inputs and latches; comments follow
  ``c``.  Property sections (``B``/``C``/``J``/``F`` counts) are not
  supported.

Mapping into the IR: each AIGER variable becomes one node (PI, DFF or
2-input AND); negated literals materialize one shared NOT node per
variable; constant literals materialize CONST0/CONST1 nodes.  On write,
NOT and BUF nodes fold back into complemented/aliased literals, so
``read ∘ write`` is structurally stable and ``write ∘ read ∘ write`` is
textually idempotent.
"""

from __future__ import annotations

from pathlib import Path

from repro.circuit.gates import GateType
from repro.circuit.levelize import cut_topo_order
from repro.circuit.netlist import Netlist, NetlistError

__all__ = [
    "read_aiger",
    "read_aiger_file",
    "write_aiger",
    "write_aiger_file",
]

#: Gate kinds representable in AIGER output.  NOT/BUF fold into literals;
#: CONST0/CONST1 map to literals 0/1; everything else must be lowered
#: through :func:`repro.circuit.aig.to_aig` first.
_WRITABLE = frozenset(
    {
        GateType.PI,
        GateType.AND,
        GateType.NOT,
        GateType.BUF,
        GateType.DFF,
        GateType.CONST0,
        GateType.CONST1,
    }
)


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------

def read_aiger(data: str | bytes, name: str | None = None) -> Netlist:
    """Parse AIGER source (ASCII text or binary bytes) into a netlist.

    ``name`` overrides the netlist name; otherwise the first comment line
    (which :func:`write_aiger` uses to store the name) or ``"aiger"`` wins.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    if data.startswith(b"aag"):
        return _read_ascii(data, name)
    if data.startswith(b"aig"):
        return _read_binary(data, name)
    raise NetlistError("not an AIGER document (expected 'aag' or 'aig' header)")


def read_aiger_file(path: str | Path) -> Netlist:
    """Read an ``.aag``/``.aig`` file; the format comes from the header."""
    path = Path(path)
    nl = read_aiger(path.read_bytes())
    if nl.name == "aiger":
        nl.name = path.stem
    return nl


def _parse_header(line: bytes) -> tuple[str, list[int]]:
    parts = line.split()
    if len(parts) < 6:
        raise NetlistError(f"malformed AIGER header {line!r}")
    fmt = parts[0].decode("ascii", "replace")
    try:
        counts = [int(p) for p in parts[1:6]]
    except ValueError:
        raise NetlistError(f"malformed AIGER header {line!r}") from None
    if any(c < 0 for c in counts):
        raise NetlistError("negative count in AIGER header")
    if len(parts) > 6:
        extra = [int(p) for p in parts[6:]]
        if any(extra):
            raise NetlistError(
                "AIGER property sections (B/C/J/F) are not supported"
            )
    return fmt, counts


def _read_symbols(
    lines: list[bytes],
) -> tuple[dict[int, str], dict[int, str], str | None]:
    """Collect input/latch symbol names and the first comment line."""
    input_names: dict[int, str] = {}
    latch_names: dict[int, str] = {}
    comment: str | None = None
    for pos, raw in enumerate(lines):
        if raw.rstrip() == b"c":
            if pos + 1 < len(lines):
                text = lines[pos + 1].decode("utf-8", "replace").strip()
                comment = text or None
            break
        try:
            head, sym = raw.split(None, 1)
        except ValueError:
            continue
        kind, idx_text = head[:1], head[1:]
        if not idx_text.isdigit():
            continue
        idx = int(idx_text)
        text = sym.decode("utf-8", "replace").strip()
        if kind == b"i":
            input_names[idx] = text
        elif kind == b"l":
            latch_names[idx] = text
    return input_names, latch_names, comment


class _AigerBuilder:
    """Shared literal-resolution machinery of the two readers."""

    def __init__(
        self,
        name: str,
        counts: list[int],
        input_names: dict[int, str],
        latch_names: dict[int, str],
    ) -> None:
        self.max_var, self.n_in, self.n_latch, self.n_out, self.n_and = counts
        if self.n_in + self.n_latch + self.n_and > self.max_var:
            raise NetlistError(
                f"AIGER header claims M={self.max_var} but needs "
                f"{self.n_in + self.n_latch + self.n_and} variables"
            )
        self.nl = Netlist(name)
        #: variable index -> netlist node id (the *un-negated* signal).
        self.var_node: dict[int, int] = {}
        self._not_memo: dict[int, int] = {}
        self._const: dict[bool, int] = {}
        used = set(input_names.values()) | set(latch_names.values())

        def fresh(base: str) -> str:
            if base not in used and base not in self.nl._names:
                return base
            k = 0
            while f"{base}_{k}" in used or f"{base}_{k}" in self.nl._names:
                k += 1
            return f"{base}_{k}"

        self._fresh = fresh
        self._input_names = input_names
        self._latch_names = latch_names

    def add_input(self, pos: int, var: int) -> None:
        self._claim(var)
        name = self._input_names.get(pos) or f"i{pos}"
        if name in self.nl._names:
            name = self._fresh(name)
        self.var_node[var] = self.nl.add_pi(name)

    def add_latch(self, pos: int, var: int) -> None:
        self._claim(var)
        name = self._latch_names.get(pos) or f"l{pos}"
        if name in self.nl._names:
            name = self._fresh(name)
        self.var_node[var] = self.nl.add_dff(None, name)

    def add_and_shell(self, var: int) -> None:
        self._claim(var)
        self.var_node[var] = self.nl.add_gate(
            GateType.AND, (), self._fresh(f"a{var}")
        )

    def _claim(self, var: int) -> None:
        if not 1 <= var <= self.max_var:
            raise NetlistError(f"AIGER variable {var} outside 1..{self.max_var}")
        if var in self.var_node:
            raise NetlistError(f"AIGER variable {var} defined twice")

    def lit_node(self, lit: int) -> int:
        """Resolve a literal to a node, materializing NOT/CONST on demand."""
        if lit < 0 or lit > 2 * self.max_var + 1:
            raise NetlistError(f"AIGER literal {lit} out of range")
        var, neg = lit >> 1, bool(lit & 1)
        if var == 0:
            node = self._const.get(neg)
            if node is None:
                gt = GateType.CONST1 if neg else GateType.CONST0
                node = self.nl.add_gate(gt, (), self._fresh(gt.value.lower()))
                self._const[neg] = node
            return node
        base = self.var_node.get(var)
        if base is None:
            raise NetlistError(f"AIGER literal {lit} references undefined var {var}")
        if not neg:
            return base
        inv = self._not_memo.get(var)
        if inv is None:
            inv = self.nl.add_gate(
                GateType.NOT, (base,), self._fresh(f"n{var}")
            )
            self._not_memo[var] = inv
        return inv

    def wire_latch(self, var: int, next_lit: int, init: int | None) -> None:
        if init not in (None, 0):
            raise NetlistError(
                f"latch var {var} has init {init}; only reset-to-0 latches "
                "are supported (the simulator resets all state to zero)"
            )
        self.nl.set_fanins(self.var_node[var], [self.lit_node(next_lit)])

    def wire_and(self, var: int, rhs0: int, rhs1: int) -> None:
        self.nl.set_fanins(
            self.var_node[var], [self.lit_node(rhs0), self.lit_node(rhs1)]
        )

    def finish(self, output_lits: list[int]) -> Netlist:
        for lit in output_lits:
            self.nl.add_po(self.lit_node(lit))
        self.nl.validate()
        return self.nl


def _read_ascii(data: bytes, name: str | None) -> Netlist:
    lines = data.splitlines()
    if not lines:
        raise NetlistError("empty AIGER document")
    fmt, counts = _parse_header(lines[0])
    if fmt != "aag":
        raise NetlistError(f"expected ASCII 'aag' header, got {fmt!r}")
    n_in, n_latch, n_out, n_and = counts[1:]
    body = lines[1:]
    needed = n_in + n_latch + n_out + n_and
    if len(body) < needed:
        raise NetlistError(
            f"AIGER body truncated: {len(body)} lines, need {needed}"
        )
    input_names, latch_names, comment = _read_symbols(body[needed:])
    b = _AigerBuilder(name or comment or "aiger", counts, input_names, latch_names)

    pos = 0
    input_lits: list[int] = []
    for k in range(n_in):
        lit = _ascii_ints(body[pos], 1)[0]
        if lit & 1 or lit == 0:
            raise NetlistError(f"input literal {lit} must be even and nonzero")
        input_lits.append(lit)
        b.add_input(k, lit >> 1)
        pos += 1
    latch_rows: list[list[int]] = []
    for k in range(n_latch):
        row = _ascii_ints(body[pos], None)
        if len(row) not in (2, 3):
            raise NetlistError(f"malformed latch line {body[pos]!r}")
        lit = row[0]
        if lit & 1 or lit == 0:
            raise NetlistError(f"latch literal {lit} must be even and nonzero")
        b.add_latch(k, lit >> 1)
        latch_rows.append(row)
        pos += 1
    output_lits = [_ascii_ints(body[pos + k], 1)[0] for k in range(n_out)]
    pos += n_out
    and_rows: list[list[int]] = []
    for _ in range(n_and):
        row = _ascii_ints(body[pos], 3)
        lhs = row[0]
        if lhs & 1 or lhs == 0:
            raise NetlistError(f"AND literal {lhs} must be even and nonzero")
        b.add_and_shell(lhs >> 1)
        and_rows.append(row)
        pos += 1

    for row in latch_rows:
        init = row[2] if len(row) == 3 else None
        b.wire_latch(row[0] >> 1, row[1], init)
    for lhs, rhs0, rhs1 in and_rows:
        b.wire_and(lhs >> 1, rhs0, rhs1)
    return b.finish(output_lits)


def _ascii_ints(line: bytes, expected: int | None) -> list[int]:
    parts = line.split()
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise NetlistError(f"malformed AIGER line {line!r}") from None
    if expected is not None and len(values) != expected:
        raise NetlistError(
            f"malformed AIGER line {line!r}: expected {expected} fields"
        )
    return values


def _read_binary(data: bytes, name: str | None) -> Netlist:
    newline = data.find(b"\n")
    if newline < 0:
        raise NetlistError("binary AIGER has no header line")
    fmt, counts = _parse_header(data[:newline])
    if fmt != "aig":
        raise NetlistError(f"expected binary 'aig' header, got {fmt!r}")
    max_var, n_in, n_latch, n_out, n_and = counts
    if n_in + n_latch + n_and != max_var:
        raise NetlistError(
            "binary AIGER requires M = I + L + A "
            f"(got M={max_var}, I+L+A={n_in + n_latch + n_and})"
        )
    pos = newline + 1
    # Latch and output rows are ASCII lines even in the binary format.
    latch_rows: list[list[int]] = []
    for _ in range(n_latch):
        end = data.find(b"\n", pos)
        if end < 0:
            raise NetlistError("binary AIGER truncated in latch section")
        row = _ascii_ints(data[pos:end], None)
        if len(row) not in (1, 2):
            raise NetlistError(f"malformed binary latch line {data[pos:end]!r}")
        latch_rows.append(row)
        pos = end + 1
    output_lits: list[int] = []
    for _ in range(n_out):
        end = data.find(b"\n", pos)
        if end < 0:
            raise NetlistError("binary AIGER truncated in output section")
        output_lits.append(_ascii_ints(data[pos:end], 1)[0])
        pos = end + 1

    b = _AigerBuilder(name or "aiger", counts, {}, {})
    for k in range(n_in):
        b.add_input(k, k + 1)
    for k in range(n_latch):
        b.add_latch(k, n_in + k + 1)
    for k in range(n_and):
        b.add_and_shell(n_in + n_latch + k + 1)

    for k, row in enumerate(latch_rows):
        init = row[1] if len(row) == 2 else None
        b.wire_latch(n_in + k + 1, row[0], init)
    for k in range(n_and):
        lhs = 2 * (n_in + n_latch + k + 1)
        delta0, pos = _decode_delta(data, pos)
        delta1, pos = _decode_delta(data, pos)
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        if rhs0 < 0 or rhs1 < 0:
            raise NetlistError(f"binary AND {lhs} decodes to negative literal")
        b.wire_and(lhs >> 1, rhs0, rhs1)
    # Symbols/comments may follow the binary block.
    input_names, latch_names, comment = _read_symbols(data[pos:].splitlines())
    for idx, sym in input_names.items():
        _try_rename(b.nl, b.var_node.get(idx + 1), sym)
    for idx, sym in latch_names.items():
        _try_rename(b.nl, b.var_node.get(n_in + idx + 1), sym)
    b.nl.name = name or comment or "aiger"
    return b.finish(output_lits)


def _try_rename(nl: Netlist, node: int | None, name: str) -> None:
    """Apply a symbol-table name when it does not collide."""
    if node is None or not name or name in nl._names:
        return
    old = nl._nodes[node].name
    nl._nodes[node].name = name
    del nl._names[old]
    nl._names[name] = node


def _decode_delta(data: bytes, pos: int) -> tuple[int, int]:
    """LEB128-style 7-bit little-endian delta used by binary AIGER."""
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise NetlistError("binary AIGER truncated in AND section")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise NetlistError("binary AIGER delta overflows 64 bits")


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------

def write_aiger(nl: Netlist, *, binary: bool = False) -> str | bytes:
    """Serialize an AIG netlist to AIGER (text for ``aag``, bytes for ``aig``).

    Accepts the sequential-AIG alphabet plus BUF (folded into its fanin's
    literal), NOT (folded into complemented literals) and CONST0/CONST1
    (literals 0/1).  Anything richer must be lowered first::

        from repro.circuit.aig import to_aig
        text = write_aiger(to_aig(nl).aig)

    AND gates are emitted in combinational topological order with freshly
    assigned variable indices, which the binary format requires and the
    ASCII writer shares so both formats name variables identically.
    """
    nl.validate()
    bad = sorted(
        {nl.gate_type(i).value for i in nl.nodes() if nl.gate_type(i) not in _WRITABLE}
    )
    if bad:
        raise NetlistError(
            f"cannot express gate types {bad} in AIGER; lower with "
            "repro.circuit.aig.to_aig first"
        )
    for i in nl.nodes():
        if nl.gate_type(i) is GateType.AND and len(nl.fanins(i)) != 2:
            raise NetlistError(
                f"AIGER requires 2-input ANDs; node {i} has "
                f"{len(nl.fanins(i))} fanins (lower with to_aig)"
            )

    pis = nl.pis
    dffs = nl.dffs
    var_of: dict[int, int] = {}
    for k, pi in enumerate(pis):
        var_of[pi] = k + 1
    for k, ff in enumerate(dffs):
        var_of[ff] = len(pis) + k + 1

    # Literal per node, resolved in combinational topo order so NOT/BUF
    # chains and AND fanins always see their sources first.  The order must
    # be the *smallest-id-first* topological order: a netlist read back from
    # AIGER numbers its ANDs in file order, so this choice makes
    # ``write ∘ read`` idempotent (and fingerprint-stable) after one trip.
    lit_of: dict[int, int] = {}
    and_nodes: list[int] = []
    next_var = len(pis) + len(dffs) + 1
    for node in cut_topo_order(nl, smallest_first=True):
        gt = nl.gate_type(node)
        if gt in (GateType.PI, GateType.DFF):
            lit_of[node] = 2 * var_of[node]
        elif gt is GateType.CONST0:
            lit_of[node] = 0
        elif gt is GateType.CONST1:
            lit_of[node] = 1
        elif gt is GateType.NOT:
            lit_of[node] = lit_of[nl.fanins(node)[0]] ^ 1
        elif gt is GateType.BUF:
            lit_of[node] = lit_of[nl.fanins(node)[0]]
        else:  # AND
            var_of[node] = next_var
            lit_of[node] = 2 * next_var
            next_var += 1
            and_nodes.append(node)

    max_var = next_var - 1
    latch_next = [lit_of[nl.fanins(ff)[0]] for ff in dffs]
    output_lits = [lit_of[po] for po in nl.pos]

    symbols: list[str] = []
    for k, pi in enumerate(pis):
        sym = nl.node_name(pi)
        if sym and "\n" not in sym:
            symbols.append(f"i{k} {sym}")
    for k, ff in enumerate(dffs):
        sym = nl.node_name(ff)
        if sym and "\n" not in sym:
            symbols.append(f"l{k} {sym}")

    header_counts = (max_var, len(pis), len(dffs), len(output_lits), len(and_nodes))
    if not binary:
        lines = ["aag " + " ".join(str(c) for c in header_counts)]
        lines += [str(2 * var_of[pi]) for pi in pis]
        lines += [f"{2 * var_of[ff]} {nxt}" for ff, nxt in zip(dffs, latch_next)]
        lines += [str(lit) for lit in output_lits]
        for node in and_nodes:
            f0, f1 = nl.fanins(node)
            a, bl = lit_of[f0], lit_of[f1]
            if a < bl:
                a, bl = bl, a
            lines.append(f"{lit_of[node]} {a} {bl}")
        lines += symbols
        lines.append(f"c\n{nl.name}")
        return "\n".join(lines) + "\n"

    out = bytearray()
    out += ("aig " + " ".join(str(c) for c in header_counts) + "\n").encode()
    for nxt in latch_next:
        out += f"{nxt}\n".encode()
    for lit in output_lits:
        out += f"{lit}\n".encode()
    for node in and_nodes:
        lhs = lit_of[node]
        f0, f1 = nl.fanins(node)
        a, bl = lit_of[f0], lit_of[f1]
        if a < bl:
            a, bl = bl, a
        if lhs <= a:
            raise NetlistError(
                f"binary AIGER ordering violated at node {node} "
                f"(lhs {lhs} <= rhs {a})"
            )
        out += _encode_delta(lhs - a)
        out += _encode_delta(a - bl)
    for sym in symbols:
        out += (sym + "\n").encode()
    out += f"c\n{nl.name}\n".encode()
    return bytes(out)


def _encode_delta(delta: int) -> bytes:
    out = bytearray()
    while True:
        byte = delta & 0x7F
        delta >>= 7
        if delta:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def write_aiger_file(nl: Netlist, path: str | Path) -> None:
    """Write ``.aag`` (ASCII) or ``.aig`` (binary) based on the suffix."""
    path = Path(path)
    binary = path.suffix.lower() == ".aig"
    data = write_aiger(nl, binary=binary)
    if binary:
        path.write_bytes(data)  # type: ignore[arg-type]
    else:
        path.write_text(data)  # type: ignore[arg-type]
