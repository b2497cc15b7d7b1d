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

Both formats are front ends of one literal table (:class:`_Table`): the
readers only tokenise into it and the writer only formats it.  Mapping
into the IR: each AIGER variable becomes one node (PI, DFF or 2-input
AND, in that order); negated literals materialize one shared NOT node per
variable and constant literals CONST0/CONST1 nodes, numbered by first use
over latch next-states, AND operands and outputs.  On write, NOT and BUF
nodes fold back into complemented/aliased literals, so ``read ∘ write``
is structurally stable and ``write ∘ read ∘ write`` is textually
idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.levelize import cut_topo_order
from repro.circuit.netlist import GATE_TYPES, Netlist, NetlistError, Structure

__all__ = [
    "read_aiger",
    "read_aiger_file",
    "write_aiger",
    "write_aiger_file",
]

#: Type codes of the gate kinds representable in AIGER.  NOT/BUF fold into
#: literals; CONST0/CONST1 map to literals 0/1; everything else must be
#: lowered through :func:`repro.circuit.aig.to_aig` first.
_PI, _DFF, _AND, _NOT, _BUF, _CONST0, _CONST1 = _WRITABLE = [
    GATE_TYPES.index(t)
    for t in (
        GateType.PI, GateType.DFF, GateType.AND, GateType.NOT,
        GateType.BUF, GateType.CONST0, GateType.CONST1,
    )
]


@dataclass
class _Table:
    """An AIGER document as int64 literal arrays.

    ``inputs`` (I,) and ``latches`` (L,) are the defining literals,
    ``next`` / ``init`` (L,) the latch rows, ``outputs`` (O,) and ``ands``
    (A, 3) rows of ``lhs rhs0 rhs1``; ``trailer`` is every line after the
    circuit (symbol table, then ``c`` and comments).
    """

    max_var: int
    inputs: np.ndarray
    latches: np.ndarray
    next: np.ndarray
    init: np.ndarray
    outputs: np.ndarray
    ands: np.ndarray
    trailer: list[bytes]


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
    header, _, body = data.partition(b"\n")
    binary, counts = _parse_header(header)
    if binary:
        table = _tokenise_binary(counts, body, len(data))
    else:
        table = _tokenise_ascii(counts, body)
    structure, extra = _lower(table)
    names, comment = _node_names(table, extra)
    nl = Netlist.from_structure(structure, names, name or comment or "aiger")
    nl.validate()
    return nl


def read_aiger_file(path: str | Path) -> Netlist:
    """Read an ``.aag``/``.aig`` file; the format comes from the header."""
    path = Path(path)
    nl = read_aiger(path.read_bytes())
    if nl.name == "aiger":
        nl.name = path.stem
    return nl


def _parse_header(line: bytes) -> tuple[bool, list[int]]:
    """``(is binary, [M, I, L, O, A])`` of a header line."""
    parts = line.split()
    if not parts or parts[0] not in (b"aag", b"aig"):
        raise NetlistError("not an AIGER document (expected 'aag' or 'aig' header)")
    try:
        counts = [int(p) for p in parts[1:]]
    except ValueError:
        counts = []
    if len(counts) < 5:
        raise NetlistError(f"malformed AIGER header {line!r}")
    if min(counts) < 0:
        raise NetlistError("negative count in AIGER header")
    if any(counts[5:]):
        raise NetlistError("AIGER property sections (B/C/J/F) are not supported")
    if 2 * counts[0] + 1 > np.iinfo(np.int64).max:
        raise NetlistError(f"AIGER header M={counts[0]} overflows 64-bit literals")
    return parts[0] == b"aig", counts[:5]


def _int_rows(lines: list[bytes], widths: tuple[int, ...]) -> np.ndarray:
    """One int64 row per line, each with one of ``widths`` fields; a row
    short of the widest is zero-filled."""
    rows = []
    for line in lines:
        try:
            row = [int(p) for p in line.split()]
        except ValueError:
            row = []
        if len(row) not in widths:
            raise NetlistError(f"malformed AIGER line {line!r} (fields: {widths})")
        rows.append(row + [0] * (max(widths) - len(row)))
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), max(widths))
    except OverflowError:
        raise NetlistError("AIGER literal overflows 64 bits") from None


def _tokenise_ascii(counts: list[int], body: bytes) -> _Table:
    max_var, n_in, n_latch, n_out, n_and = counts
    lines = body.splitlines()
    cuts = list(accumulate([n_in, n_latch, n_out, n_and]))
    if len(lines) < cuts[-1]:
        raise NetlistError(
            f"AIGER body truncated: {len(lines)} lines, need {cuts[-1]}"
        )
    inputs = _int_rows(lines[: cuts[0]], (1,))[:, 0]
    latches = _int_rows(lines[cuts[0] : cuts[1]], (2, 3))
    outputs = _int_rows(lines[cuts[1] : cuts[2]], (1,))[:, 0]
    ands = _int_rows(lines[cuts[2] : cuts[3]], (3,))
    for what, lits in (
        ("input", inputs), ("latch", latches[:, 0]), ("AND", ands[:, 0])
    ):
        odd = lits[(lits & 1 == 1) | (lits == 0)]
        if odd.size:
            raise NetlistError(f"{what} literal {odd[0]} must be even and nonzero")
    return _Table(
        max_var, inputs, latches[:, 0], latches[:, 1], latches[:, 2],
        outputs, ands, lines[cuts[3] :],
    )


def _tokenise_binary(counts: list[int], body: bytes, doc_bytes: int) -> _Table:
    max_var, n_in, n_latch, n_out, n_and = counts
    if n_in + n_latch + n_and != max_var:
        raise NetlistError(
            "binary AIGER requires M = I + L + A "
            f"(got M={max_var}, I+L+A={n_in + n_latch + n_and})"
        )
    # Header counts size the arrays below, so each is held against the
    # document before anything is built from it: latch and output rows
    # are counted as they are split off, ANDs as their deltas are decoded.
    # Inputs are implicit — nothing else bounds what a 30-byte document can
    # make the reader build — so a document may not declare more of them
    # than it has bits.
    if n_in > 8 * doc_bytes:
        raise NetlistError(
            f"binary AIGER input section: {n_in} inputs declared by a "
            f"{doc_bytes}-byte document"
        )
    # Latch and output rows are ASCII lines even in the binary format.
    *rows, rest = body.split(b"\n", min(n_latch + n_out, len(body)))
    if len(rows) < n_latch + n_out:
        section = "latch" if len(rows) < n_latch else "output"
        raise NetlistError(f"binary AIGER truncated in {section} section")
    latches = _int_rows(rows[:n_latch], (1, 2))
    outputs = _int_rows(rows[n_latch:], (1,))[:, 0]
    deltas, end = _decode_deltas(rest, 2 * n_and)
    variables = 2 * np.arange(1, max_var + 1, dtype=np.int64)
    lhs = variables[n_in + n_latch :]
    rhs0 = lhs - deltas[0::2]  # negative ones are out of range for _lower
    return _Table(
        max_var, variables[:n_in], variables[n_in : n_in + n_latch],
        latches[:, 0], latches[:, 1], outputs,
        np.stack([lhs, rhs0, rhs0 - deltas[1::2]], axis=1), rest[end:].splitlines(),
    )


def _decode_deltas(block: bytes, count: int) -> tuple[np.ndarray, int]:
    """The first ``count`` LEB128 (7-bit little-endian) numbers of ``block``
    and the offset just past them."""
    raw = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(raw < 0x80)[:count]
    if ends.size < count:
        raise NetlistError("binary AIGER truncated in AND section")
    starts = np.append(0, ends[:-1] + 1)[:count]
    if (ends - starts >= 9).any():
        raise NetlistError("binary AIGER delta overflows 64 bits")
    stop = int(ends[-1]) + 1 if count else 0
    shift = 7 * (np.arange(stop) - np.repeat(starts, ends - starts + 1))
    groups = (raw[:stop] & 0x7F).astype(np.int64) << shift
    return np.add.reduceat(groups, starts) if count else groups, stop


def _encode_deltas(values: np.ndarray) -> bytes:
    """Non-negative int64 numbers as LEB128."""
    groups = (values[:, None] >> np.arange(0, 63, 7)) & 0x7F
    used = np.maximum(1, ((groups != 0) * np.arange(1, 10)).max(axis=1))[:, None]
    groups |= (np.arange(9) < used - 1) << 7  # continuation bits
    return groups[np.arange(9) < used].astype(np.uint8).tobytes()


def _read_symbols(
    trailer: list[bytes], n_in: int, n_latch: int
) -> tuple[dict[int, str], dict[int, str], str | None]:
    """Input and latch symbols by position (symbols past their section are
    ignored) and the first comment line."""
    input_names: dict[int, str] = {}
    latch_names: dict[int, str] = {}
    comment: str | None = None
    for pos, raw in enumerate(trailer):
        if raw.rstrip() == b"c":
            if pos + 1 < len(trailer):
                comment = trailer[pos + 1].decode("utf-8", "replace").strip() or None
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
        if kind == b"i" and idx < n_in:
            input_names[idx] = text
        elif kind == b"l" and idx < n_latch:
            latch_names[idx] = text
    return input_names, latch_names, comment


def _lower(t: _Table) -> tuple[Structure, np.ndarray]:
    """A literal table as a structure: variables become nodes in table
    order (inputs, latches, ANDs), then one NOT or constant node per
    distinct negated or constant literal in first-use order over latch
    next-states, AND operands and outputs.  Also returns those literals."""
    n_in, n_latch, n_and = t.inputs.size, t.latches.size, len(t.ands)
    defined = np.concatenate([t.inputs, t.latches, t.ands[:, 0]]) >> 1
    stray = defined[(defined < 1) | (defined > t.max_var)]
    if stray.size:
        raise NetlistError(f"AIGER variable {stray[0]} outside 1..{t.max_var}")
    by_var = np.argsort(defined, kind="stable")
    ranked = np.append(defined[by_var], -1)  # the sentinel matches no variable
    twice = ranked[1:][ranked[1:] == ranked[:-1]]
    if twice.size:
        raise NetlistError(f"AIGER variable {twice[0]} defined twice")
    live = np.flatnonzero(t.init)
    if live.size:
        raise NetlistError(
            f"latch var {t.latches[live[0]] >> 1} has init {t.init[live[0]]}; "
            "only reset-to-0 latches are supported (the simulator resets all "
            "state to zero)"
        )

    def variable_nodes(lits: np.ndarray) -> np.ndarray:
        slot = np.searchsorted(ranked[:-1], lits >> 1)
        missing = lits[ranked[slot] != lits >> 1]
        if missing.size:
            raise NetlistError(
                f"AIGER literal {missing[0]} references undefined var {missing[0] >> 1}"
            )
        return by_var[slot]

    uses = np.concatenate([t.next, t.ands[:, 1:].ravel(), t.outputs])
    stray = uses[(uses < 0) | (uses > 2 * t.max_var + 1)]
    if stray.size:
        raise NetlistError(f"AIGER literal {stray[0]} out of range")
    own = (uses & 1 == 1) | (uses == 0)  # a NOT or constant node of its own
    extra, first, inverse = np.unique(
        uses[own], return_index=True, return_inverse=True
    )
    by_use = np.argsort(first)
    extra = extra[by_use]
    node = np.empty(uses.size, dtype=np.int64)
    node[own] = defined.size + np.argsort(by_use)[inverse]
    node[~own] = variable_nodes(uses[~own])
    inverted = extra > 1

    arity = np.concatenate([np.repeat([0, 1, 2], [n_in, n_latch, n_and]), inverted])
    outputs = node[n_latch + 2 * n_and :]
    return Structure(
        np.concatenate(
            [
                np.repeat([_PI, _DFF, _AND], [n_in, n_latch, n_and]),
                np.select([extra == 0, extra == 1], [_CONST0, _CONST1], _NOT),
            ]
        ).astype(np.int8),
        np.append(0, np.cumsum(arity)),
        np.concatenate(
            [node[: n_latch + 2 * n_and], variable_nodes(extra[inverted])]
        ),
        outputs[np.sort(np.unique(outputs, return_index=True)[1])],
    ), extra


def _node_names(t: _Table, extra: np.ndarray) -> tuple[list[str], str | None]:
    """A name per node of :func:`_lower`'s structure, and the comment line:
    symbols or ``i<k>`` / ``l<k>``, then ``a<var>``, ``n<var>``, ``const0/1``.

    Both formats resolve collisions alike: a symbol already taken by an
    earlier input or latch gets a ``_<k>`` suffix, and a generated name
    never takes a symbol."""
    n_in, n_latch = t.inputs.size, t.latches.size
    input_names, latch_names, comment = _read_symbols(t.trailer, n_in, n_latch)
    generated = [f"a{v}" for v in (t.ands[:, 0] >> 1).tolist()] + [
        f"n{lit >> 1}" if lit > 1 else f"const{lit}" for lit in extra.tolist()
    ]
    reserved = {*input_names.values(), *latch_names.values()}
    names: list[str] = []
    taken: set[str] = set()

    def claim(base: str, always_fresh: bool = True) -> None:
        picked, k = base, 0
        if base in taken or (always_fresh and base in reserved):
            while (picked := f"{base}_{k}") in taken or picked in reserved:
                k += 1
        names.append(picked)
        taken.add(picked)

    for prefix, table, count in (
        ("i", input_names, n_in), ("l", latch_names, n_latch)
    ):
        for k in range(count):
            claim(table.get(k) or f"{prefix}{k}", always_fresh=False)
    for base in generated:
        claim(base)
    return names, comment


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
    s = nl.structure()
    code = s.type_code
    bad = sorted({GATE_TYPES[c].value for c in code[~np.isin(code, _WRITABLE)]})
    if bad:
        raise NetlistError(
            f"cannot express gate types {bad} in AIGER; lower with "
            "repro.circuit.aig.to_aig first"
        )
    wide = np.flatnonzero((code == _AND) & (s.arity != 2))
    if wide.size:
        raise NetlistError(
            f"AIGER requires 2-input ANDs; node {wide[0]} has "
            f"{s.arity[wide[0]]} fanins (lower with to_aig)"
        )

    # ANDs take fresh variables in the *smallest-id-first* topological
    # order: a netlist read back from AIGER numbers its ANDs in file order,
    # so this choice makes ``write ∘ read`` idempotent (and
    # fingerprint-stable) after one trip.
    order = np.array(cut_topo_order(nl, smallest_first=True), dtype=np.int64)
    pis, dffs = s.ids(GateType.PI), s.ids(GateType.DFF)
    ands = order[code[order] == _AND]
    variables = np.concatenate([pis, dffs, ands])
    lit = np.zeros(s.num_nodes, dtype=np.int64)
    lit[code == _CONST1] = 1
    lit[variables] = 2 * np.arange(1, variables.size + 1)
    # NOT and BUF fold into their fanin's literal, sources first.
    folded = order[np.isin(code[order], (_NOT, _BUF))]
    lits = lit.tolist()
    for v, u, flip in zip(
        folded.tolist(),
        s.fanin_idx[s.fanin_ptr[folded]].tolist(),
        (code[folded] == _NOT).tolist(),
    ):
        lits[v] = lits[u] ^ flip
    lit = np.array(lits, dtype=np.int64)
    rhs = lit[s.fanin_idx[s.fanin_ptr[ands][:, None] + np.arange(2)]]

    symbols = [
        f"{kind}{k} {sym}"
        for kind, ids in (("i", pis), ("l", dffs))
        for k, sym in enumerate(map(nl.node_name, ids.tolist()))
        if sym and "\n" not in sym
    ]
    table = _Table(
        variables.size, lit[pis], lit[dffs], lit[s.fanin_idx[s.fanin_ptr[dffs]]],
        np.zeros(dffs.size, dtype=np.int64), lit[s.pos],
        np.stack([lit[ands], rhs.max(axis=1), rhs.min(axis=1)], axis=1),
        [line.encode() for line in symbols + ["c", nl.name]],
    )
    return _format_binary(table) if binary else _format_ascii(table)


def _header(fmt: str, t: _Table) -> str:
    sizes = (t.max_var, t.inputs.size, t.latches.size, t.outputs.size, len(t.ands))
    return f"{fmt} " + " ".join(map(str, sizes))


def _format_ascii(t: _Table) -> str:
    lines = [_header("aag", t)]
    lines += map(str, t.inputs.tolist())
    lines += [f"{lit} {nxt}" for lit, nxt in zip(t.latches.tolist(), t.next.tolist())]
    lines += map(str, t.outputs.tolist())
    lines += ["%d %d %d" % tuple(row) for row in t.ands.tolist()]
    lines += [line.decode() for line in t.trailer]
    return "\n".join(lines) + "\n"


def _format_binary(t: _Table) -> bytes:
    """Inputs and AND left-hand sides are implicit; each AND stores the
    LEB128 deltas ``lhs - rhs0`` and ``rhs0 - rhs1`` (``rhs0 >= rhs1``)."""
    rows = [_header("aig", t), *map(str, t.next.tolist() + t.outputs.tolist())]
    head = "".join(f"{row}\n" for row in rows).encode()
    deltas = _encode_deltas((t.ands[:, :2] - t.ands[:, 1:]).ravel())
    return head + deltas + b"".join(line + b"\n" for line in t.trailer)


def write_aiger_file(nl: Netlist, path: str | Path) -> None:
    """Write ``.aag`` (ASCII) or ``.aig`` (binary) based on the suffix."""
    path = Path(path)
    binary = path.suffix.lower() == ".aig"
    data = write_aiger(nl, binary=binary)
    if binary:
        path.write_bytes(data)  # type: ignore[arg-type]
    else:
        path.write_text(data)  # type: ignore[arg-type]
