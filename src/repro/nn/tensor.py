"""A reverse-mode automatic-differentiation tensor on numpy.

The paper implements DeepSeq in PyTorch Geometric; this environment has no
deep-learning framework, so the reproduction carries its own: a small,
well-tested autograd engine exposing exactly the operators the DAG-GNN
models need — elementwise arithmetic with broadcasting, matmul,
activations, reductions, concatenation, row gather/scatter (for levelized
message passing) and segment sums (for attention softmax over variable-size
predecessor sets).

Design choices:

* dtype is configurable: ``float64`` is the default (training sets are
  small, and double precision makes gradient checking against finite
  differences tight), ``float32`` is the inference fast path used by the
  batched runtime (:mod:`repro.runtime`).  Arrays that are already
  ``float32``/``float64`` keep their dtype; everything else is coerced to
  the process default (see :func:`set_default_dtype` /
  :class:`default_dtype`).
* Graphs are built eagerly; :meth:`Tensor.backward` runs a topological
  sweep and frees the tape as it goes: each node drops its closure and
  parent links right after pushing its gradient (PyTorch's
  ``retain_graph=False``), so saved arrays are released during backward
  rather than by a later cycle collection, and a graph is differentiated
  at most once — a second walk through a freed node raises
  ``RuntimeError``.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
]

# Grad mode is *thread-local*: the serving layer runs no-grad forward
# passes on worker threads while other threads may be training, and a
# process-global flag would let one thread's ``no_grad`` exit re-enable
# graph construction mid-forward in another (nondeterministic kernels and
# leaked autograd graphs).  Each thread starts with grad enabled.
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


def sorted_segment_layout(
    segment_ids: np.ndarray, num_segments: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """(nonempty segment ids, their start offsets) for ``reduceat``-style
    segment reductions, or ``None`` when ``segment_ids`` is not sorted.

    Levelized edge batches emit destinations in nondecreasing order, so the
    fast contiguous-run path applies throughout the GNN hot loop; arbitrary
    segment ids fall back to ``np.<op>.at``.
    """
    if segment_ids.size == 0 or not np.all(segment_ids[1:] >= segment_ids[:-1]):
        return None
    counts = np.bincount(segment_ids, minlength=num_segments)
    nonempty = np.flatnonzero(counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))[nonempty]
    return nonempty, starts


def rowstable_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with row-deterministic kernels.

    Row i of the product may not depend on the batch height, or the packed
    multi-circuit runtime could not reproduce sequential results bitwise.
    BLAS breaks that in two regimes — M==1 takes the gemv kernel, and
    narrow outputs (N<=3) take M-dependent kernels — so both are routed to
    stable computations (einsum's C loop accumulates each output element
    independently of the batch height).
    """
    if a.ndim == 2 and b.ndim == 2 and b.shape[1] <= 3:
        return np.einsum("ij,jc->ic", a, b)
    if a.ndim == 2 and a.shape[0] == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


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
