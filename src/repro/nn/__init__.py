"""Neural-network substrate: parameters, layers, optimizers, checkpoints.

Every layer and model cell is a kernel pair on raw numpy arrays:
``kernel_forward(...) -> (out, ctx)`` and ``kernel_backward(ctx, g, acc)``,
which returns the input gradients and adds the parameter gradients into
``acc``.  Training runs the forward kernels, the closed-form loss gradient
(:func:`l1_loss_grad`) and the backward kernels in order; inference runs
the same forward kernels and keeps no contexts.
"""

from repro.nn.init import orthogonal, uniform, xavier_uniform
from repro.nn.layers import MLP, Linear, ReLU, Sequential, Sigmoid, l1_loss_grad
from repro.nn.module import (
    Module,
    Parameter,
    bump_parameter_version,
    parameter_version,
)
from repro.nn.optim import (
    SGD,
    Adam,
    ConstantLR,
    CosineLR,
    LRSchedule,
    Optimizer,
    StepLR,
    make_schedule,
)
from repro.nn.recurrent import GRUCell
from repro.nn.serialize import (
    Checkpoint,
    clone_module,
    dumps_state,
    load_checkpoint,
    load_module,
    load_state,
    loads_state,
    save_checkpoint,
    save_module,
    save_state,
)

__all__ = [
    "orthogonal",
    "uniform",
    "xavier_uniform",
    "MLP",
    "Linear",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "l1_loss_grad",
    "Module",
    "Parameter",
    "bump_parameter_version",
    "parameter_version",
    "SGD",
    "Adam",
    "Optimizer",
    "LRSchedule",
    "ConstantLR",
    "CosineLR",
    "StepLR",
    "make_schedule",
    "GRUCell",
    "Checkpoint",
    "clone_module",
    "dumps_state",
    "load_checkpoint",
    "load_module",
    "load_state",
    "loads_state",
    "save_checkpoint",
    "save_module",
    "save_state",
]
