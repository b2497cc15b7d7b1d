"""Optimizers and learning-rate schedules.

The paper trains everything with ADAM at lr = 1e-4 and a constant
schedule; the training runtime additionally supports cosine and step
decay (epoch-indexed, so checkpoint-resume only needs the epoch number to
reproduce the schedule exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.nn.module import Parameter, bump_parameter_version

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "LRSchedule",
    "ConstantLR",
    "CosineLR",
    "StepLR",
    "make_schedule",
]


class Optimizer:
    """Base optimizer over a parameter list."""

    def __init__(self, params: list[Parameter]) -> None:
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self._step()
        # In-place updates leave array identities unchanged; the version
        # counter lets derived caches (dtype replicas, cached transposes)
        # notice the mutation.
        bump_parameter_version()

    def _step(self) -> None:
        raise NotImplementedError

    def apply_gradients(self, grads: list[np.ndarray | None]) -> None:
        """Install pre-reduced gradients and take one step.

        ``grads`` is one entry per parameter (in the optimizer's parameter
        order); ``None`` entries leave that parameter untouched, exactly
        as a parameter that received no gradient during ``backward`` would
        be.  The arrays are installed as-is — no accumulation with
        whatever ``p.grad`` held before — which is the contract the
        data-parallel trainer needs: the reduction
        (:func:`repro.runtime.ddp.reduce_gradients`) already produced the
        full group sum in its pinned order, and any further arithmetic
        here would perturb the bitwise guarantee.
        """
        if len(grads) != len(self.params):
            raise ValueError(
                f"apply_gradients got {len(grads)} gradients for "
                f"{len(self.params)} parameters"
            )
        for p, g in zip(self.params, grads):
            if g is not None and g.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} != parameter {p.data.shape}"
                )
            p.grad = g
        self.step()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of the optimizer's slot state, keyed by flat string names.

        The parameter *values* are not included — they live in the model's
        own state dict; this covers only what the optimizer accumulates
        (moments, step counters, velocities).
        """
        return {}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore slot state saved by :meth:`state_dict`.

        The optimizer must wrap the same parameter list (same order and
        shapes) it was saved from.
        """
        if state:
            raise ValueError(f"unexpected optimizer state keys: {sorted(state)}")

    @staticmethod
    def _check_slots(
        slots: list[np.ndarray], state: dict[str, np.ndarray], prefix: str
    ) -> None:
        expected = {f"{prefix}{i}" for i in range(len(slots))}
        if expected - state.keys():
            raise KeyError(
                f"optimizer state missing keys: {sorted(expected - state.keys())}"
            )
        for i, slot in enumerate(slots):
            value = state[f"{prefix}{i}"]
            if value.shape != slot.shape:
                raise ValueError(
                    f"optimizer slot {prefix}{i} shape mismatch: "
                    f"{value.shape} vs {slot.shape}"
                )
            # ``v[...] = state`` would silently upcast e.g. float32
            # checkpoint moments into float64 slots — the resumed run
            # then diverges from the uninterrupted one while claiming the
            # bitwise-resume guarantee.  Mixed dtypes mean the checkpoint
            # does not belong to this optimizer; refuse it.
            if value.dtype != slot.dtype:
                raise ValueError(
                    f"optimizer slot {prefix}{i} dtype mismatch: checkpoint "
                    f"has {value.dtype}, optimizer expects {slot.dtype}"
                )


class SGD(Optimizer):
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(
        self, params: list[Parameter], lr: float = 1e-2, momentum: float = 0.0
    ) -> None:
        super().__init__(params)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def _step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            if self.momentum:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * p.grad

    def state_dict(self) -> dict[str, np.ndarray]:
        return {f"v{i}": v.copy() for i, v in enumerate(self._velocity)}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self._check_slots(self._velocity, state, "v")
        for i, v in enumerate(self._velocity):
            v[...] = state[f"v{i}"]


class Adam(Optimizer):
    """ADAM (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def _step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {"t": np.asarray(self._t, dtype=np.int64)}
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            out[f"m{i}"] = m.copy()
            out[f"v{i}"] = v.copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if "t" not in state:
            raise KeyError("Adam state missing step counter 't'")
        self._check_slots(self._m, state, "m")
        self._check_slots(self._v, state, "v")
        self._t = int(state["t"])
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            m[...] = state[f"m{i}"]
            v[...] = state[f"v{i}"]


# ----------------------------------------------------------------------
# learning-rate schedules (epoch-indexed, stateless)
# ----------------------------------------------------------------------


class LRSchedule:
    """Maps an epoch index to a learning rate.

    Schedules are pure functions of the epoch, so resuming from a
    checkpoint needs no schedule state beyond the epoch number itself.
    """

    def lr_at(self, epoch: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantLR(LRSchedule):
    """The paper's schedule: a fixed learning rate."""

    base_lr: float

    def lr_at(self, epoch: int) -> float:
        return self.base_lr


@dataclass(frozen=True)
class CosineLR(LRSchedule):
    """Cosine annealing from ``base_lr`` down to ``min_lr`` over the run."""

    base_lr: float
    total_epochs: int
    min_lr: float = 0.0

    def lr_at(self, epoch: int) -> float:
        span = max(1, self.total_epochs - 1)
        frac = min(max(epoch, 0), span) / span
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (
            1.0 + math.cos(math.pi * frac)
        )


@dataclass(frozen=True)
class StepLR(LRSchedule):
    """Multiply the rate by ``gamma`` every ``step_size`` epochs."""

    base_lr: float
    step_size: int
    gamma: float = 0.5

    def lr_at(self, epoch: int) -> float:
        return self.base_lr * self.gamma ** (max(epoch, 0) // max(1, self.step_size))


def make_schedule(
    kind: str,
    base_lr: float,
    total_epochs: int,
    *,
    min_lr: float = 0.0,
    step_size: int = 10,
    gamma: float = 0.5,
) -> LRSchedule:
    """Schedule factory: ``constant`` | ``cosine`` | ``step``."""
    if kind == "constant":
        return ConstantLR(base_lr)
    if kind == "cosine":
        return CosineLR(base_lr, total_epochs, min_lr=min_lr)
    if kind == "step":
        return StepLR(base_lr, step_size, gamma=gamma)
    raise ValueError(
        f"unknown LR schedule {kind!r}; choose from constant, cosine, step"
    )
