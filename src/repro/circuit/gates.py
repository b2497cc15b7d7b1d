"""Gate types and their zero-delay boolean semantics.

DeepSeq operates on sequential AIGs whose node alphabet is exactly
``{PI, AND, NOT, DFF}`` (paper, Section III).  Realistic test netlists,
however, arrive with a richer gate library (Table IV circuits have "multiple
gate types"); those are decomposed into AND/NOT by :mod:`repro.circuit.aig`.
This module is the single source of truth for both alphabets: the AIG core
types, the extended library used by generated/parsed test circuits, and the
boolean evaluation of every gate.
"""

from __future__ import annotations

import enum
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GateType",
    "AIG_TYPES",
    "SEQUENTIAL_TYPES",
    "COMBINATIONAL_TYPES",
    "EXTENDED_TYPES",
    "FANIN_ARITY",
    "ONE_HOT_INDEX",
    "ONE_HOT_DIM",
    "one_hot",
    "eval_gate",
    "eval_gate_into",
    "gate_kernel",
    "GateKernel",
    "gate_truth_table",
]


#: An in-place gate evaluation: ``kernel(inputs, out)`` reads the stacked
#: ``(arity, m, words)`` fanins and writes the ``(m, words)`` result.
GateKernel = Callable[[np.ndarray, np.ndarray], None]


class GateType(enum.Enum):
    """Every gate kind understood by the library.

    The first four members form the AIG alphabet used for learning; the rest
    belong to the extended library accepted by the ``.bench`` parser and the
    synthetic benchmark generators, and are lowered to the AIG alphabet by
    :func:`repro.circuit.aig.to_aig`.
    """

    PI = "PI"
    AND = "AND"
    NOT = "NOT"
    DFF = "DFF"
    # --- extended library (lowered before learning) ---
    BUF = "BUF"
    OR = "OR"
    NAND = "NAND"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    MUX = "MUX"
    CONST0 = "CONST0"
    CONST1 = "CONST1"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GateType.{self.name}"


#: The four node types of a sequential AIG (one-hot feature alphabet).
AIG_TYPES: tuple[GateType, ...] = (
    GateType.PI,
    GateType.AND,
    GateType.NOT,
    GateType.DFF,
)

#: Gate kinds holding state across clock edges.
SEQUENTIAL_TYPES: frozenset[GateType] = frozenset({GateType.DFF})

#: Everything that computes purely combinationally (PIs excluded: they are
#: inputs, not functions).
COMBINATIONAL_TYPES: frozenset[GateType] = frozenset(
    t for t in GateType if t not in SEQUENTIAL_TYPES and t is not GateType.PI
)

#: Gate kinds outside the AIG alphabet.
EXTENDED_TYPES: frozenset[GateType] = frozenset(
    t for t in GateType if t not in AIG_TYPES
)

#: Required fanin count per gate type.  ``None`` means "any count >= 2"
#: (n-ary gates the .bench format permits); the AIG lowering rewrites those
#: into 2-input trees.
FANIN_ARITY: dict[GateType, int | None] = {
    GateType.PI: 0,
    GateType.CONST0: 0,
    GateType.CONST1: 0,
    GateType.NOT: 1,
    GateType.BUF: 1,
    GateType.DFF: 1,
    GateType.AND: None,
    GateType.OR: None,
    GateType.NAND: None,
    GateType.NOR: None,
    GateType.XOR: None,
    GateType.XNOR: None,
    GateType.MUX: 3,
}

#: Index of each AIG node type in the one-hot node feature (paper: 4-d).
ONE_HOT_INDEX: dict[GateType, int] = {t: i for i, t in enumerate(AIG_TYPES)}

#: Dimensionality of the one-hot node feature.
ONE_HOT_DIM: int = len(AIG_TYPES)


def one_hot(gate_type: GateType) -> np.ndarray:
    """Return the 4-d one-hot feature for an AIG node type.

    Raises:
        ValueError: for a gate outside the AIG alphabet (lower it first).
    """
    if gate_type not in ONE_HOT_INDEX:
        raise ValueError(
            f"{gate_type} is not an AIG node type; run the circuit through "
            "repro.circuit.aig.to_aig first"
        )
    vec = np.zeros(ONE_HOT_DIM, dtype=np.float64)
    vec[ONE_HOT_INDEX[gate_type]] = 1.0
    return vec


def eval_gate(gate_type: GateType, inputs: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate a *combinational* gate on packed/boolean input words.

    ``inputs`` holds one numpy array per fanin.  Arrays may be ``bool`` or any
    unsigned integer dtype whose bits encode parallel simulation streams; the
    bitwise operators used here are meaningful for both.  DFFs and PIs are
    not functions of their fanins within a cycle and are rejected.
    """
    if gate_type not in _KERNELS or FANIN_ARITY[gate_type] == 0:
        raise ValueError(f"{gate_type} is not combinationally evaluable")
    _check_arity(gate_type, len(inputs))
    if gate_type is GateType.NOT:
        return ~inputs[0]
    if gate_type is GateType.BUF:
        return inputs[0].copy()
    if gate_type is GateType.MUX:
        # MUX(sel, a, b) = a when sel=0 else b.
        sel, a, b = inputs
        return (a & ~sel) | (b & sel)
    ufunc, inverted = _KERNELS[gate_type]
    out = inputs[0].copy()
    for arr in inputs[1:]:
        ufunc(out, arr, out=out)
    return ~out if inverted else out


def gate_kernel(gate_type: GateType, arity: int) -> GateKernel:
    """The allocation-free :func:`eval_gate` of one gate kind and arity.

    Returns ``kernel(inputs, out)``: ``inputs`` is the stacked fanin array
    ``(arity, m, words)`` (a plan's gather buffer), ``out`` a preallocated
    ``(m, words)`` buffer the result is written into (a plan passes the
    group's slice of its value buffer).  ``inputs`` may be clobbered
    (MUX reuses a fanin row as scratch), which is safe because gather
    buffers are refilled before every evaluation.  Results are
    bitwise-identical to :func:`eval_gate`; unlike it, the constant gates
    are served too, so the fault path can re-materialize and flip them.

    The arity is checked here, once: a :class:`repro.sim.logicsim.SimPlan`
    binds the kernel per group at build time, so the cycle loop neither
    dispatches nor validates.
    """
    if gate_type not in _KERNELS:
        raise ValueError(f"{gate_type} is not combinationally evaluable")
    _check_arity(gate_type, arity)
    kernel = _KERNELS[gate_type]
    if not isinstance(kernel, tuple):
        return kernel
    ufunc, inverted = kernel
    binary = arity == 2

    def reduce_into(inputs: np.ndarray, out: np.ndarray) -> None:
        if binary:
            ufunc(inputs[0], inputs[1], out)
        else:
            ufunc.reduce(inputs, axis=0, out=out)
        if inverted:
            np.invert(out, out)

    return reduce_into


def eval_gate_into(gate_type: GateType, inputs: np.ndarray, out: np.ndarray) -> None:
    """One call through :func:`gate_kernel` for ``inputs.shape[0]`` fanins."""
    gate_kernel(gate_type, inputs.shape[0])(inputs, out)


def gate_truth_table(gate_type: GateType, arity: int) -> np.ndarray:
    """Return the output column of the gate's truth table.

    The result has ``2**arity`` boolean entries; row ``i``'s input assignment
    is the binary expansion of ``i`` with fanin 0 as the least-significant
    bit.  Used by the Grannite baseline's truth-table-derived node features
    and by tests that cross-check :func:`eval_gate`.
    """
    if FANIN_ARITY[gate_type] == 0:
        if gate_type is GateType.CONST0:
            return np.zeros(1, dtype=bool)
        if gate_type is GateType.CONST1:
            return np.ones(1, dtype=bool)
        raise ValueError(f"{gate_type} has no truth table")
    rows = np.arange(2**arity, dtype=np.uint32)
    columns = [((rows >> k) & 1).astype(bool) for k in range(arity)]
    return eval_gate(gate_type, columns)


def _not_into(inputs: np.ndarray, out: np.ndarray) -> None:
    np.invert(inputs[0], out)


def _buf_into(inputs: np.ndarray, out: np.ndarray) -> None:
    np.copyto(out, inputs[0])


def _mux_into(inputs: np.ndarray, out: np.ndarray) -> None:
    sel, a, b = inputs
    np.invert(sel, out)
    np.bitwise_and(out, a, out)
    np.bitwise_and(b, sel, sel)
    np.bitwise_or(out, sel, out)


def _const0_into(inputs: np.ndarray, out: np.ndarray) -> None:
    out.fill(0)


def _const1_into(inputs: np.ndarray, out: np.ndarray) -> None:
    out.fill(np.iinfo(out.dtype).max if out.dtype.kind == "u" else True)


#: The one dispatch table of gate semantics: per evaluable gate kind its
#: in-place kernel or, for the n-ary reducing gates, ``(ufunc, inverted)``.
_KERNELS: dict[GateType, "GateKernel | tuple[np.ufunc, bool]"] = {
    GateType.AND: (np.bitwise_and, False),
    GateType.OR: (np.bitwise_or, False),
    GateType.NAND: (np.bitwise_and, True),
    GateType.NOR: (np.bitwise_or, True),
    GateType.XOR: (np.bitwise_xor, False),
    GateType.XNOR: (np.bitwise_xor, True),
    GateType.NOT: _not_into,
    GateType.BUF: _buf_into,
    GateType.MUX: _mux_into,
    GateType.CONST0: _const0_into,
    GateType.CONST1: _const1_into,
}


def _check_arity(gate_type: GateType, n: int) -> None:
    """Reject a fanin count :data:`FANIN_ARITY` does not allow."""
    expected = FANIN_ARITY[gate_type]
    if expected is None:
        if n < 2:
            raise ValueError(f"{gate_type} requires >= 2 fanins, got {n}")
    elif n != expected:
        raise ValueError(f"{gate_type} requires {expected} fanin(s), got {n}")
