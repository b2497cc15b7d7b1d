"""Feed-forward layers: Linear, Sequential, ReLU and the 3-layer MLP heads.

The paper's regressor is "2 independent sets of 3-MLPs" with ReLU between
layers (Section IV-A3); :class:`MLP` reproduces that shape.

No layer here branches on dtype or grad mode: inference runs the same
operators under ``no_grad`` (:meth:`Tensor._make` skips the tape), and
float32 differs only by the parameter arrays the runtime swaps in.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import xavier_uniform
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

__all__ = ["Linear", "ReLU", "Sigmoid", "Sequential", "MLP"]


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

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


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

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
