"""Module / Parameter containers with state-dict (de)serialization."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

__all__ = ["Parameter", "Module", "bump_parameter_version", "parameter_version"]

# Process-wide counter bumped whenever parameter data is updated in place
# (optimizer steps, state-dict loads).  Derived caches — the runtime's
# dtype replicas, cached weight transposes — compare it to detect staleness,
# since in-place mutation leaves array identities unchanged.  Code that
# edits ``p.data`` directly by hand should call
# :func:`bump_parameter_version` afterwards.
_PARAM_VERSION = [0]


def bump_parameter_version() -> int:
    """Signal that some parameter's data changed in place."""
    _PARAM_VERSION[0] += 1
    return _PARAM_VERSION[0]


def parameter_version() -> int:
    """The current global parameter-mutation counter."""
    return _PARAM_VERSION[0]


class Parameter:
    """A trainable array and its gradient.

    ``data`` is float32 or float64 (anything else becomes float64).
    ``grad`` is ``None`` until a backward adds into it through
    :meth:`accumulate`; the optimizers skip a parameter whose ``grad`` is
    still ``None``.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data) -> None:
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad``: into a fresh array when ``grad`` is ``None`` (the
        caller may keep it past the next step), in place otherwise."""
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad


class Module:
    """Base class for neural network components.

    Assigning a :class:`Parameter` or a :class:`Module` as an attribute
    registers it automatically; :meth:`parameters`, :meth:`state_dict` and
    :meth:`load_state_dict` walk the registration tree.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._params.items():
            yield f"{prefix}{name}", p
        for name, m in self._modules.items():
            yield from m.named_parameters(f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter's data, keyed by dotted path."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values; shapes and key sets must match exactly."""
        own = dict(self.named_parameters())
        missing = own.keys() - state.keys()
        unexpected = state.keys() - own.keys()
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, p in own.items():
            value = np.asarray(state[name], dtype=p.data.dtype)
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {p.data.shape}"
                )
            p.data[...] = value
        bump_parameter_version()

    # ------------------------------------------------------------------
    def forward(self, *args):
        """The output of the module's forward kernel, ``kernel_forward``,
        without its backward context."""
        if not hasattr(self, "kernel_forward"):
            raise NotImplementedError
        return self.kernel_forward(*args)[0]

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def grad_buffers(self) -> list[np.ndarray]:
        """One zero array per :meth:`parameters` entry: the ``acc`` a
        ``kernel_backward`` adds its parameter gradients into."""
        return [np.zeros_like(p.data) for p in self.parameters()]

    def accumulate_grads(self, acc: Sequence[np.ndarray]) -> None:
        """Add ``acc`` (aligned with :meth:`parameters`) into ``p.grad``."""
        for p, grad in zip(self.parameters(), acc):
            p.accumulate(grad)

    def backward_to_grads(self, ctx, g: np.ndarray):
        """``kernel_backward`` for one call: returns the input gradients and
        adds the parameter gradients into ``p.grad``."""
        acc = self.grad_buffers()
        d_in = self.kernel_backward(ctx, g, acc)
        self.accumulate_grads(acc)
        return d_in
