"""Gated recurrent unit cell — the Combine function of every model (Eq. 8)."""

from __future__ import annotations

import numpy as np

from repro.nn.init import orthogonal, xavier_uniform
from repro.nn.module import Module, Parameter, parameter_version
from repro.nn.tensor import rowstable_matmul

__all__ = ["GRUCell"]


class GRUCell(Module):
    """Standard GRU cell: ``h' = (1-z) * n + z * h``.

    Gates::

        r = sigmoid(x W_ir^T + h W_hr^T + b_r)
        z = sigmoid(x W_iz^T + h W_hz^T + b_z)
        n = tanh(x W_in^T + r * (h W_hn^T) + b_n)

    Args:
        input_size: width of the aggregated message input.
        hidden_size: embedding width (paper: 64).
        seed: initialization seed; input weights Xavier, recurrent weights
            orthogonal.
    """

    def __init__(self, input_size: int, hidden_size: int, seed: int = 0) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        rng = np.random.default_rng(seed)
        self.w_ih = Parameter(xavier_uniform(rng, (3 * hidden_size, input_size)))
        self.w_hh = Parameter(
            np.concatenate(
                [orthogonal(rng, (hidden_size, hidden_size)) for _ in range(3)]
            )
        )
        self.b_ih = Parameter(np.zeros(3 * hidden_size))
        self.b_hh = Parameter(np.zeros(3 * hidden_size))
        self._t_cache: tuple | None = None

    def kernel_forward(self, x: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, tuple]:
        """One step on raw arrays, ``x`` (B, input_size) and ``h``
        (B, hidden_size): ``(h', ctx)`` for ``kernel_backward``.

        The sweep's two halves over one run of rows: :meth:`prologue` on
        ``h``, then :meth:`level_forward`.  It replays the GRU composed from
        autograd operators (same kernels, same operation order, so the
        values are bitwise equal; the tests hold that composition as the
        oracle).
        """
        return self.level_forward(x, h, self.prologue(h), 0, h.shape[0])

    def prologue(self, h: np.ndarray) -> tuple:
        """The terms of a step that depend on the previous rows ``h``
        alone, for all of them at once: ``(h W_hh^T + b_hh, W_ih^T, b_ih)``.

        A row of the hidden gates does not depend on how many rows ``h``
        has (:func:`rowstable_matmul`), so the sweep computes them once
        per window of levels and each level reads its rows.
        """
        wi_t, wh_t = self._transposed_weights()
        gh = rowstable_matmul(h, wh_t)
        gh += self.b_hh.data
        return gh, wi_t, self.b_ih.data

    def level_forward(
        self, x: np.ndarray, h: np.ndarray, terms: tuple, lo: int, hi: int
    ) -> tuple[np.ndarray, tuple]:
        """The step for rows ``lo:hi`` of a :meth:`prologue`'s ``terms``,
        whose previous rows are ``h`` and inputs ``x``: ``(h', ctx)``.

        The only executed arithmetic, for every dtype, in training and
        inference.  Buffer discipline is part of the contract (large
        float32 packs are memory-bound): one gemm, its bias added in
        place, both sigmoids on one ``(B, 2*hs)`` buffer, the candidate
        built in place; ``ctx`` keeps ``x``, ``h``, the gate buffer, ``n``
        and ``h_n`` (a view of the prologue's hidden gates) for the
        backward.
        """
        gh_all, wi_t, b_ih = terms
        hs = self.hidden_size
        gh = gh_all[lo:hi]
        gi = rowstable_matmul(x, wi_t)
        gi += b_ih
        rz = gi[:, : 2 * hs] + gh[:, : 2 * hs]
        np.negative(rz, out=rz)
        np.exp(rz, out=rz)
        rz += 1.0
        np.reciprocal(rz, out=rz)  # sigmoid = 1 / (1 + exp(-.))
        z = rz[:, hs:]
        h_n = gh[:, 2 * hs :]
        n = rz[:, :hs] * h_n
        n += gi[:, 2 * hs :]
        np.tanh(n, out=n)
        out = 1.0 - z
        out *= n
        out += z * h  # (1 - z) * n + z * h
        return out, (x, h, rz, n, h_n)

    def kernel_backward(
        self, ctx: tuple, g: np.ndarray, acc: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Analytic backward of :meth:`kernel_forward` for output gradient
        ``g``: adds the four parameter gradients into ``acc`` (in
        :meth:`parameters` order) and returns ``(dx, dh)``."""
        x, h, rz, n, h_n = ctx
        hs = self.hidden_size
        r, z = rz[:, :hs], rz[:, hs:]
        dn_pre = (g * (1.0 - z)) * (1.0 - n * n)  # through tanh
        dz_pre = (g * (h - n)) * z * (1.0 - z)  # through sigmoid
        dr_pre = (dn_pre * h_n) * r * (1.0 - r)
        dgi = np.concatenate([dr_pre, dz_pre, dn_pre], axis=1)
        dgh = np.concatenate([dr_pre, dz_pre, dn_pre * r], axis=1)
        d_w_ih, d_w_hh, d_b_ih, d_b_hh = acc
        d_w_ih += dgi.T @ x
        d_w_hh += dgh.T @ h
        d_b_ih += dgi.sum(axis=0)
        d_b_hh += dgh.sum(axis=0)
        return dgi @ self.w_ih.data, g * z + dgh @ self.w_hh.data

    def _transposed_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """``(w_ih.T, w_hh.T)`` as the right operands of the two gemms.

        BLAS picks M-dependent kernels for a transposed-view right operand,
        which would break the runtime's bitwise packed-equals-sequential
        guarantee — so the transposes are contiguous copies, cached until
        the parameter arrays are swapped (the runtime's dtype shadow
        replaces ``data`` wholesale) or mutated in place (optimizer steps
        bump the global parameter version).
        """
        wi, wh = self.w_ih.data, self.w_hh.data
        version = parameter_version()
        cached = self._t_cache
        if (
            cached is None
            or cached[0] is not wi
            or cached[1] is not wh
            or cached[2] != version
        ):
            cached = self._t_cache = (
                wi,
                wh,
                version,
                np.ascontiguousarray(wi.T),
                np.ascontiguousarray(wh.T),
            )
        return cached[3], cached[4]

    def __getstate__(self) -> dict:
        # The transpose cache is derived state that pins the float32
        # shadow arrays; it must not ride the structure pickles shipped to
        # worker processes.
        return {**self.__dict__, "_t_cache": None}
