"""Feed-forward layers: Linear, Sequential, ReLU and the 3-layer MLP heads,
plus the closed-form L1 loss gradient that trains them.

The paper's regressor is "2 independent sets of 3-MLPs" with ReLU between
layers (Section IV-A3); :class:`MLP` reproduces that shape.

Every layer is a kernel pair on raw arrays, like the GNN cells:
``kernel_forward(x) -> (y, ctx)`` and ``kernel_backward(ctx, g, acc) ->
dx``, which adds the parameter gradients into ``acc`` (one array per
:meth:`~repro.nn.module.Module.parameters` entry).  Inference calls the
same forward kernels and drops the contexts, and no layer branches on
dtype: float32 differs only by the parameter arrays the runtime swaps in.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import xavier_uniform
from repro.nn.module import Module, Parameter
from repro.nn.tensor import rowstable_matmul

__all__ = ["Linear", "ReLU", "Sigmoid", "Sequential", "MLP", "l1_loss_grad"]


class Linear(Module):
    """Affine map ``y = x W^T + b``.

    Args:
        in_features: input width.
        out_features: output width.
        bias: include the additive bias term.
        seed: initialization seed (Xavier-uniform weights, zero bias).
    """

    def __init__(
        self, in_features: int, out_features: int, bias: bool = True, seed: int = 0
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = np.random.default_rng(seed)
        self.weight = Parameter(xavier_uniform(rng, (out_features, in_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def kernel_forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        # The transpose is a contiguous copy: a transposed-view right
        # operand makes BLAS pick batch-height-dependent kernels, which
        # would break the packed-equals-sequential guarantee.
        wt = np.ascontiguousarray(self.weight.data.T)
        y = rowstable_matmul(x, wt)
        if self.bias is not None:
            y += self.bias.data
        return y, (x, wt)

    def kernel_backward(
        self, ctx: tuple, g: np.ndarray, acc: list[np.ndarray]
    ) -> np.ndarray:
        x, wt = ctx
        acc[0] += (x.T @ g).T
        if self.bias is not None:
            acc[1] += g.sum(axis=0)
        return g @ wt.T

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    def kernel_forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Bitwise np.where(x > 0, x, 0.0) for every input (fmax drops NaN
        # to 0.0, the += turns -0.0 into +0.0) at a fraction of its cost.
        y = np.fmax(x, 0.0)
        y += 0.0
        return y, y

    def kernel_backward(self, y: np.ndarray, g: np.ndarray, acc) -> np.ndarray:
        return g * (y > 0)


class Sigmoid(Module):
    def kernel_forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = 1.0 / (1.0 + np.exp(-x))
        return y, y

    def kernel_backward(self, y: np.ndarray, g: np.ndarray, acc) -> np.ndarray:
        return g * y * (1.0 - y)


class Sequential(Module):
    """Apply child modules in order; ``acc`` splits by child."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Inference: each child's context is dropped as soon as it returns,
        # so no intermediate activation outlives the next layer.
        for layer in self.layers:
            x = layer(x)
        return x

    def kernel_forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        ctxs = []
        for layer in self.layers:
            x, ctx = layer.kernel_forward(x)
            ctxs.append(ctx)
        return x, ctxs

    def kernel_backward(
        self, ctx: list, g: np.ndarray, acc: list[np.ndarray]
    ) -> np.ndarray:
        end = len(acc)
        for layer, layer_ctx in zip(reversed(self.layers), reversed(ctx)):
            start = end - len(layer.parameters())
            g = layer.kernel_backward(layer_ctx, g, acc[start:end])
            end = start
        return g


class MLP(Module):
    """A multi-layer perceptron with ReLU between hidden layers.

    Args:
        in_features: input width.
        hidden: width of each hidden layer.
        out_features: output width.
        num_layers: total Linear layers (paper heads: 3).
        sigmoid_out: squash the output into (0, 1) — used by the probability
            regression heads so L1 targets stay in range.
        seed: initialization seed.
    """

    def __init__(
        self,
        in_features: int,
        hidden: int,
        out_features: int,
        num_layers: int = 3,
        sigmoid_out: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("MLP needs at least one layer")
        layers: list[Module] = []
        width_in = in_features
        for i in range(num_layers - 1):
            layers.append(Linear(width_in, hidden, seed=seed + i))
            layers.append(ReLU())
            width_in = hidden
        layers.append(Linear(width_in, out_features, seed=seed + num_layers))
        if sigmoid_out:
            layers.append(Sigmoid())
        self.net = Sequential(*layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.net(x)

    def kernel_forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        return self.net.kernel_forward(x)

    def kernel_backward(
        self, ctx: list, g: np.ndarray, acc: list[np.ndarray]
    ) -> np.ndarray:
        return self.net.kernel_backward(ctx, g, acc)


def l1_loss_grad(
    pred: np.ndarray, target: np.ndarray, scale: float = 1.0
) -> tuple[float, np.ndarray]:
    """The mean absolute error (the summands of the paper's Eq. 3) and the
    gradient of ``scale`` times it with respect to ``pred``:
    ``scale / n * sign(pred - target)``, with ``n = pred.size``."""
    diff = pred - target
    inv_n = 1.0 / diff.size
    grad = np.sign(diff)
    grad *= scale * inv_n
    return float(np.abs(diff).sum() * inv_n), grad
