"""Finite-difference gradient checking helper shared by the nn tests."""

import numpy as np

from tests.nn.tape import Tensor


def gradcheck(fn, shapes, eps=1e-6, tol=1e-5, seed=0, positive=False):
    """Assert that autograd gradients of ``fn`` match central differences.

    Args:
        fn: callable taking len(shapes) Tensors and returning a scalar Tensor.
        shapes: input shapes.
        positive: draw inputs from (0.5, 1.5) instead of standard normal
            (for ops with restricted domains like log).
    """
    rng = np.random.default_rng(seed)
    if positive:
        values = [rng.random(s) + 0.5 for s in shapes]
    else:
        values = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(v.copy(), requires_grad=True) for v in values]
    out = fn(*tensors)
    out.backward()

    for k, (v, t) in enumerate(zip(values, tensors)):
        analytic = t.grad if t.grad is not None else np.zeros_like(v)
        numeric = np.zeros_like(v)
        it = np.nditer(v, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            vp = v.copy()
            vp[ix] += eps
            vm = v.copy()
            vm[ix] -= eps
            args_p = [Tensor(vp if j == k else values[j]) for j in range(len(values))]
            args_m = [Tensor(vm if j == k else values[j]) for j in range(len(values))]
            numeric[ix] = (fn(*args_p).item() - fn(*args_m).item()) / (2 * eps)
            it.iternext()
        err = np.abs(numeric - analytic).max()
        assert err < tol, f"input {k}: max gradient error {err:.2e} (tol {tol})"
