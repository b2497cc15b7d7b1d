"""The reverse-mode autograd tape: the tests' oracle for the kernel pairs.

``src/`` trains with hand-written kernel pairs (``kernel_forward`` /
``kernel_backward`` on every layer, cell and the L1 loss); nothing there
builds a graph.  This module keeps the general mechanism they replaced —
a numpy tensor with elementwise arithmetic, matmul, activations,
reductions, gather/scatter and segment sums, whose :meth:`Tensor.backward`
walks the recorded graph — so tests can compose the same computations
from individual operators and hold the kernels to them:

* :class:`Tensor`, :class:`no_grad` and the default-dtype helpers;
* the composite operators (:func:`softmax`, :func:`segment_softmax`,
  :func:`segment_mean`, :func:`l1_loss`, :func:`mse_loss`);
* bridges from the array modules to the tape: :func:`param` (a parameter
  as a leaf whose gradient lands in ``p.grad``), :func:`apply_kernel`
  (a cell's kernel pair as one graph node), :func:`linear` and :func:`mlp`
  (the layers composed from operators), :func:`sweep` (a whole
  propagation as one node), and the Tensor-level model forwards
  :func:`embed`, :func:`model_forward` and :func:`grannite_forward`.

Graphs are built eagerly; :meth:`Tensor.backward` runs a topological
sweep and frees the tape as it goes: each node drops its closure and
parent links right after pushing its gradient, so a graph is
differentiated at most once — a second walk through a freed node raises
``RuntimeError``.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.models.base import LevelPass, _h0_base, propagate, propagate_backward
from repro.nn.layers import Linear, ReLU, Sigmoid
from repro.nn.tensor import rowstable_matmul, sorted_segment_layout
from repro.runtime.plan import plan_for

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "softmax",
    "segment_softmax",
    "segment_mean",
    "l1_loss",
    "mse_loss",
    "clip01",
    "param",
    "apply_kernel",
    "linear",
    "mlp",
    "sweep",
    "embed",
    "model_forward",
    "grannite_initial_hidden",
    "grannite_forward",
]

# Grad mode is *thread-local*: a process-global flag would let one
# thread's ``no_grad`` exit re-enable graph construction mid-forward in
# another.  Each thread starts with grad enabled.
_GRAD_STATE = threading.local()

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_DEFAULT_DTYPE = [np.dtype(np.float64)]


def _as_float_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in _FLOAT_DTYPES:
        raise ValueError(f"unsupported tensor dtype {resolved}; use float32/float64")
    return resolved


def get_default_dtype() -> np.dtype:
    """The dtype non-float data is coerced to when building tensors."""
    return _DEFAULT_DTYPE[0]


def set_default_dtype(dtype) -> None:
    """Set the process-wide default tensor dtype (float32 or float64)."""
    _DEFAULT_DTYPE[0] = _as_float_dtype(dtype)


class default_dtype:
    """Context manager scoping the default tensor dtype."""

    def __init__(self, dtype) -> None:
        self._dtype = _as_float_dtype(dtype)

    def __enter__(self) -> "default_dtype":
        self._prev = _DEFAULT_DTYPE[0]
        _DEFAULT_DTYPE[0] = self._dtype
        return self

    def __exit__(self, *exc) -> None:
        _DEFAULT_DTYPE[0] = self._prev


class no_grad:
    """Context manager disabling graph construction (inference mode).

    Scoped to the entering thread — concurrent serving workers and
    training threads each carry their own grad mode.
    """

    def __enter__(self) -> "no_grad":
        self._prev = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_STATE.enabled = self._prev


def is_grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along broadcast (size-1) axes.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _consumed(grad: np.ndarray) -> None:
    """Backward closure of a node whose graph a ``backward()`` already freed."""
    raise RuntimeError(
        "backward through a graph that was already differentiated: "
        "backward() frees the tape as it walks it, so run the forward again"
    )


class Tensor:
    """A numpy array plus an optional autograd node.

    Args:
        data: array-like; float32/float64 arrays keep their dtype, anything
            else is coerced to the process default dtype.
        requires_grad: track gradients for this leaf.
        dtype: explicit dtype override (float32 or float64).
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_saved_grads",
    )
    __array_priority__ = 100  # make numpy defer to our __r*__ operators

    def __init__(self, data, requires_grad: bool = False, dtype=None) -> None:
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(_as_float_dtype(dtype), copy=False)
        elif not (
            isinstance(data, (np.ndarray, np.generic))
            and arr.dtype in _FLOAT_DTYPES
        ):
            # Only real numpy float data carries its dtype through; lists,
            # Python scalars and integer arrays adopt the process default.
            arr = arr.astype(_DEFAULT_DTYPE[0], copy=False)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def astype(self, dtype) -> "Tensor":
        """Dtype-cast copy (detached from the autograd graph)."""
        return Tensor(self.data.astype(_as_float_dtype(dtype), copy=True))

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy); treat as read-only."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single element, have {self.data.size}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad})"

    @staticmethod
    def _lift(value, like: np.dtype | None = None) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        # Python scalars are "weak" operands: adopt the other side's dtype
        # so float32 graphs are not silently promoted back to float64.
        if like is not None and isinstance(value, (int, float)):
            return Tensor(np.asarray(value, dtype=like))
        return Tensor(value)

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data)
        if is_grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (defaults to d(self)/d(self)=1).

        Consumes the graph: every non-leaf node reached is released once
        its gradient has been pushed, so the tape is freed while the walk
        runs and backpropagating through it again raises ``RuntimeError``.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward on a tensor without grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward() without grad needs a scalar")
            grad = np.ones_like(self.data)
        # The id()-keyed structures below are transient to this one call.
        # A node leaves `order` (and may be freed) only after its own key
        # is popped; every key still in `grads` belongs to a parent of a
        # processed node, which sits earlier in `order` and stays pinned,
        # so ids cannot be recycled mid-walk.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:  # reprolint: disable=REP006 -- transient, nodes pinned
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:  # reprolint: disable=REP006 -- transient, nodes pinned
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.asarray(grad, dtype=self.data.dtype)}  # reprolint: disable=REP006 -- transient, nodes pinned
        while order:
            node = order.pop()
            g = grads.pop(id(node), None)  # reprolint: disable=REP006 -- transient, nodes pinned
            if node._backward is None:
                if g is not None:
                    node._accumulate(g)
                continue
            if g is not None:
                node._saved_grads = grads  # type: ignore[attr-defined]
                node._backward(g)
                del node._saved_grads  # type: ignore[attr-defined]
            # Each closure captures its own output, so until this line the
            # node sits in a reference cycle only the cyclic GC would free.
            node._backward = _consumed
            node._parents = ()

    # Helper used inside backward closures to push gradient to a parent.
    def _push(self, parent: "Tensor", grad: np.ndarray) -> None:
        if not parent.requires_grad:
            return
        store: dict[int, np.ndarray] = self._saved_grads  # type: ignore[attr-defined]
        if parent._backward is None and not parent._parents:
            parent._accumulate(grad)
            return
        # Keyed by id() for speed: the store lives only until the current
        # backward() returns and `parent` is pinned by the graph edge.
        key = id(parent)
        if key in store:  # reprolint: disable=REP006 -- transient, parent pinned by graph
            store[key] += grad  # reprolint: disable=REP006 -- transient, parent pinned by graph
        else:
            store[key] = grad.copy()  # reprolint: disable=REP006 -- transient, parent pinned by graph

    # ------------------------------------------------------------------
    # elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = Tensor._lift(other, self.data.dtype)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            out._push(self, _unbroadcast(g, self.data.shape))
            out._push(other, _unbroadcast(g, other.data.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = Tensor._lift(other, self.data.dtype)
        out_data = self.data - other.data

        def backward(g: np.ndarray) -> None:
            out._push(self, _unbroadcast(g, self.data.shape))
            out._push(other, _unbroadcast(-g, other.data.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    def __rsub__(self, other) -> "Tensor":
        return Tensor._lift(other, self.data.dtype).__sub__(self)

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(g: np.ndarray) -> None:
            out._push(self, -g)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def __mul__(self, other) -> "Tensor":
        other = Tensor._lift(other, self.data.dtype)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            out._push(self, _unbroadcast(g * other.data, self.data.shape))
            out._push(other, _unbroadcast(g * self.data, other.data.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor._lift(other, self.data.dtype)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            out._push(self, _unbroadcast(g / other.data, self.data.shape))
            out._push(
                other,
                _unbroadcast(-g * self.data / other.data**2, other.data.shape),
            )

        out = Tensor._make(out_data, (self, other), backward)
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor._lift(other, self.data.dtype).__truediv__(self)

    def pow(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward(g: np.ndarray) -> None:
            out._push(self, g * exponent * self.data ** (exponent - 1))

        out = Tensor._make(out_data, (self,), backward)
        return out

    __pow__ = pow

    # ------------------------------------------------------------------
    # nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            out._push(self, g * out_data)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(g: np.ndarray) -> None:
            out._push(self, g / self.data)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def relu(self) -> "Tensor":
        # Bitwise np.where(data > 0, data, 0.0) for every input (fmax drops
        # NaN to 0.0, the += turns -0.0 into +0.0) at a fraction of its cost.
        out_data = np.fmax(self.data, 0.0)
        out_data += 0.0

        def backward(g: np.ndarray) -> None:
            out._push(self, g * (out_data > 0))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g: np.ndarray) -> None:
            out._push(self, g * out_data * (1.0 - out_data))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            out._push(self, g * (1.0 - out_data**2))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(g: np.ndarray) -> None:
            out._push(self, g * sign)

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # linear algebra / shape
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = Tensor._lift(other, self.data.dtype)
        out_data = rowstable_matmul(self.data, other.data)

        def backward(g: np.ndarray) -> None:
            out._push(self, g @ other.data.T)
            out._push(other, self.data.T @ g)

        out = Tensor._make(out_data, (self, other), backward)
        return out

    __matmul__ = matmul

    @property
    def T(self) -> "Tensor":
        # The transpose is materialized in both grad modes: feeding BLAS a
        # transposed view selects M-dependent kernels, breaking the
        # row-determinism the batched runtime's bitwise packed-equals-
        # sequential guarantee relies on, and training forward computes
        # bitwise what serving computes.
        out_data = np.ascontiguousarray(self.data.T)

        def backward(g: np.ndarray) -> None:
            out._push(self, g.T)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)
        orig = self.data.shape

        def backward(g: np.ndarray) -> None:
            out._push(self, g.reshape(orig))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if axis is None:
                grad = np.broadcast_to(g, self.data.shape)
            else:
                g_exp = g if keepdims else np.expand_dims(g, axis)
                grad = np.broadcast_to(g_exp, self.data.shape)
            out._push(self, np.ascontiguousarray(grad))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = (
            self.data.size
            if axis is None
            else self.data.shape[axis]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def narrow(self, axis: int, start: int, length: int) -> "Tensor":
        """Slice ``[start, start+length)`` along ``axis`` (differentiable)."""
        index = [slice(None)] * self.data.ndim
        index[axis] = slice(start, start + length)
        index_t = tuple(index)
        out_data = self.data[index_t]

        def backward(g: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            full[index_t] = g
            out._push(self, full)

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # gather / scatter (message passing primitives)
    # ------------------------------------------------------------------
    def gather_rows(self, index: np.ndarray) -> "Tensor":
        """Select rows: ``out[i] = self[index[i]]`` (first axis)."""
        index = np.asarray(index, dtype=np.int64)
        out_data = self.data[index]

        def backward(g: np.ndarray) -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, g)
            out._push(self, grad)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def row_update(self, index: np.ndarray, rows: "Tensor") -> "Tensor":
        """Functional scatter: copy of self with ``out[index] = rows``.

        ``index`` may not repeat a row (``ValueError``); gradients flow to
        ``rows`` for every written row and to ``self`` everywhere untouched.
        """
        index = np.asarray(index, dtype=np.int64)
        rows = Tensor._lift(rows)
        written, counts = np.unique(index, return_counts=True)
        if written.size != index.size:
            raise ValueError(
                f"row_update writes row {int(written[counts > 1][0])} more "
                "than once; indices must be unique"
            )
        out_data = self.data.copy()
        out_data[index] = rows.data

        def backward(g: np.ndarray) -> None:
            g_self = g.copy()
            g_self[index] = 0.0
            out._push(self, g_self)
            out._push(rows, g[index])

        out = Tensor._make(out_data, (self, rows), backward)
        return out

    def segment_sum(
        self, segment_ids: np.ndarray, num_segments: int, layout=None
    ) -> "Tensor":
        """Sum rows into segments: ``out[s] = sum over i with seg[i]==s``.

        ``layout`` is an optional precomputed result of
        :func:`sorted_segment_layout` (e.g. ``EdgeBatch.dst_layout()``),
        saving its recomputation in the levelized hot loop.
        """
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        out_shape = (num_segments,) + self.data.shape[1:]
        out_data = np.zeros(out_shape, dtype=self.data.dtype)
        if layout is None:
            layout = sorted_segment_layout(segment_ids, num_segments)
        if layout is not None:
            nonempty, starts = layout
            out_data[nonempty] = np.add.reduceat(self.data, starts, axis=0)
        else:
            np.add.at(out_data, segment_ids, self.data)

        def backward(g: np.ndarray) -> None:
            out._push(self, g[segment_ids])

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    @staticmethod
    def concat(tensors: Iterable["Tensor"], axis: int = -1) -> "Tensor":
        parts = [Tensor._lift(t) for t in tensors]
        out_data = np.concatenate([p.data for p in parts], axis=axis)

        def backward(g: np.ndarray) -> None:
            offsets = np.cumsum([0] + [p.data.shape[axis] for p in parts])
            for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                out._push(part, g[tuple(index)])

        out = Tensor._make(out_data, tuple(parts), backward)
        return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x.data, axis=axis, keepdims=True)  # constant shift
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def segment_softmax(
    scores: Tensor, segment_ids: np.ndarray, num_segments: int, layout=None
) -> Tensor:
    """Softmax of per-edge ``scores`` within destination segments.

    Args:
        scores: shape ``(E,)`` or ``(E, 1)`` edge scores.
        segment_ids: shape ``(E,)`` destination segment of each edge.
        num_segments: number of destinations.
        layout: optional precomputed :func:`sorted_segment_layout` result
            (e.g. ``EdgeBatch.dst_layout()``) for the hot loop.

    Returns:
        Tensor of the same shape as ``scores`` holding attention weights
        that sum to 1 inside every non-empty segment.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    flat = scores if scores.ndim == 1 else scores.reshape(scores.shape[0])
    # Subtract the segment max (a constant w.r.t. gradients) for stability.
    seg_max = np.full(num_segments, -np.inf, dtype=flat.data.dtype)
    if layout is None:
        layout = sorted_segment_layout(segment_ids, num_segments)
    if layout is not None:
        nonempty, starts = layout
        seg_max[nonempty] = np.maximum.reduceat(flat.data, starts)
    else:
        np.maximum.at(seg_max, segment_ids, flat.data)
    seg_max[~np.isfinite(seg_max)] = 0.0
    shifted = flat - seg_max[segment_ids]
    e = shifted.exp()
    denom = e.segment_sum(segment_ids, num_segments, layout=layout)
    weights = e / denom.gather_rows(segment_ids)
    return weights if scores.ndim == 1 else weights.reshape(scores.shape[0], 1)


def segment_mean(
    values: Tensor, segment_ids: np.ndarray, num_segments: int
) -> Tensor:
    """Mean of rows within each segment (empty segments give zero rows)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    sums = values.segment_sum(segment_ids, num_segments)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(values.data.dtype)
    counts = np.maximum(counts, 1.0)
    shape = (num_segments,) + (1,) * (values.ndim - 1)
    return sums * Tensor(1.0 / counts.reshape(shape))


def l1_loss(pred: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean absolute error — the paper's training loss (Eq. 3 summands)."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    return (pred - target_t).abs().mean()


def mse_loss(pred: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error (used by some ablation configurations)."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target_t
    return (diff * diff).mean()


def clip01(x: np.ndarray) -> np.ndarray:
    """Clamp raw predictions into the valid probability range."""
    return np.clip(x, 0.0, 1.0)


# ----------------------------------------------------------------------
# bridges from the array modules to the tape
# ----------------------------------------------------------------------
class _ParamLeaf(Tensor):
    """A parameter as a graph leaf: its gradient accumulates into
    ``p.grad`` (fresh after ``zero_grad``, in place otherwise)."""

    __slots__ = ("param",)

    def __init__(self, p) -> None:
        super().__init__(p.data, requires_grad=True)
        self.param = p

    def _accumulate(self, grad: np.ndarray) -> None:
        self.param.accumulate(grad)


def param(p) -> Tensor:
    """``p`` (a :class:`repro.nn.module.Parameter`) as a tape leaf."""
    return _ParamLeaf(p)


def apply_kernel(module, inputs: tuple[Tensor, ...], *args) -> Tensor:
    """Run ``module``'s array kernel pair as one graph node.

    For cells with ``kernel_forward(*arrays, *args) -> (out, ctx)`` and
    ``kernel_backward(ctx, g, acc) -> input gradients`` (``None`` for an
    input the output does not depend on).
    """
    out_data, ctx = module.kernel_forward(*(t.data for t in inputs), *args)
    # The parameters as parents only make the node tracked under grad mode.
    leaves = [param(p) for p in module.parameters()]

    def backward(g: np.ndarray) -> None:
        grads = module.backward_to_grads(ctx, g)  # parameters: into p.grad
        if not isinstance(grads, tuple):
            grads = (grads,)
        for t, grad in zip(inputs, grads):
            if grad is not None:
                out._push(t, grad)

    out = Tensor._make(out_data, (*inputs, *leaves), backward)
    return out


def linear(layer, x: Tensor) -> Tensor:
    """:class:`repro.nn.layers.Linear` composed from operators."""
    out = x @ param(layer.weight).T
    if layer.bias is not None:
        out = out + param(layer.bias)
    return out


def mlp(module, x: Tensor) -> Tensor:
    """:class:`repro.nn.layers.MLP` (or ``Sequential``) composed from
    operators."""
    layers = module.net.layers if hasattr(module, "net") else module.layers
    for layer in layers:
        if isinstance(layer, Linear):
            x = linear(layer, x)
        elif isinstance(layer, ReLU):
            x = x.relu()
        elif isinstance(layer, Sigmoid):
            x = x.sigmoid()
        else:
            x = mlp(layer, x)
    return x


def sweep(h0: Tensor, cells: Sequence, run: Callable) -> Tensor:
    """A propagation as one graph node.

    ``run(state, log)`` sweeps the ``(N, d)`` buffer ``state`` in place
    (``repro.models.base.propagate`` or a model's ``embed``), appending
    its contexts to ``log`` under grad mode; the node's backward is
    ``propagate_backward``, which adds the gradients of ``cells``'
    parameters into ``p.grad`` and returns the one pushed to ``h0``.
    ``h0``'s buffer is swept in place unless ``h0`` requires grad.
    """
    state = h0.data.copy() if h0.requires_grad else h0.data
    log: list | None = [] if is_grad_enabled() else None
    run(state, log)
    leaves = [param(p) for cell in cells for p in cell.parameters()]

    def backward(g: np.ndarray) -> None:
        out._push(h0, propagate_backward(log, g.copy()))

    out = Tensor._make(state, (h0, *leaves), backward)
    return out


def embed(model, graph, workload=None, *, plan=None, h0=None) -> Tensor:
    """``RecurrentDagGnn.embed`` as one graph node."""
    if h0 is None:
        h0 = Tensor(model.initial_hidden(graph, workload))
    elif not isinstance(h0, Tensor):
        h0 = Tensor(h0)
    cells = (model.forward_agg, model.forward_gru, model.reverse_agg, model.reverse_gru)
    return sweep(
        h0, cells, lambda state, log: model.embed(graph, plan=plan, h0=state, log=log)
    )


def model_forward(model, graph, workload=None, *, plan=None, h0=None):
    """``RecurrentDagGnn.forward`` on the tape: ``(pred_tr, pred_lg)``."""
    h = embed(model, graph, workload, plan=plan, h0=h0)
    return mlp(model.head_tr, h), mlp(model.head_lg, h)


def grannite_initial_hidden(model, graph, sources) -> Tensor:
    """``Grannite.initial_hidden`` composed from operators."""
    src_embed = linear(model.source_proj, Tensor(sources.stacked()))
    base = Tensor(_h0_base(graph.num_nodes, model.config.hidden))
    return base.row_update(sources.source_ids, src_embed)


def grannite_forward(model, graph, sources) -> Tensor:
    """``Grannite.forward`` on the tape: (N, 2) transition predictions."""
    batches, _ = plan_for(graph).schedule(custom=True)
    features = model.node_features(graph)
    steps = [LevelPass(batches, [features[b.nodes] for b in batches], model.agg, model.gru)]
    h = sweep(
        grannite_initial_hidden(model, graph, sources),
        (model.agg, model.gru),
        lambda state, log: propagate(state, steps, log=log),
    )
    return mlp(model.head_tr, h)
