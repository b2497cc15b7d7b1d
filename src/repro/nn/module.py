"""Module / Parameter containers with state-dict (de)serialization."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Parameter", "Module", "bump_parameter_version", "parameter_version"]

# Process-wide counter bumped whenever parameter data is updated in place
# (optimizer steps, state-dict loads).  Derived caches — the runtime's
# dtype shadows, cached weight transposes — compare it to detect staleness,
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


class Parameter(Tensor):
    """A tensor registered as a trainable leaf."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


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
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def apply_kernel(self, inputs: tuple[Tensor, ...], *args) -> Tensor:
        """Run this module's array kernel pair as one graph node.

        For cells with ``kernel_forward(*arrays, *args) -> (out, ctx)`` and
        ``kernel_backward(ctx, g, acc) -> input gradients`` (``None`` for an
        input the output does not depend on), where ``acc`` holds one
        accumulator per :meth:`parameters` entry.  The Tensor-level
        ``forward`` of such a cell is this call; the GNN sweep calls the
        kernels directly.
        """
        out_data, ctx = self.kernel_forward(*(t.data for t in inputs), *args)
        params = self.parameters()

        def backward(g: np.ndarray) -> None:
            acc = [np.zeros_like(p.data) for p in params]
            for t, grad in zip(inputs, self.kernel_backward(ctx, g, acc)):
                if grad is not None:
                    out._push(t, grad)
            for p, grad in zip(params, acc):
                out._push(p, grad)

        out = Tensor._make(out_data, (*inputs, *params), backward)
        return out
