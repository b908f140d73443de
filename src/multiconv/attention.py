"""Multi-head scaled dot-product self-attention over a single sequence.

Sequences are processed one at a time ([T, dim], no padding), so no masking
is needed; every query attends to every frame. Each call hands its
per-head weight map to :func:`~multiconv.layers.observe`, from where an
``observing()`` block collects it for the alignment diagnostics.

A call records five tape nodes: the q, k and v projections, one attention
node whose hand-written backward gives dq, dk and dv (after FlashAttention,
Dao et al., arXiv 2205.14135), and the output projection.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor, record
from .errors import ConfigError, ShapeError
from .layers import Linear, Module, dropout_mask, observe, softmax_backward, softmax_forward


class MultiHeadAttention(Module):
    """Standard multi-head self-attention with a final output projection.

    Each call observes its post-softmax weights, a [heads, T, T] array whose
    row ``[h, q]`` is a distribution over keys.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, dropout_p: float = 0.0):
        if heads < 1 or dim % heads:
            raise ConfigError(f"dim {dim} cannot be split into {heads} heads")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.q_proj = Linear(dim, dim, rng)
        self.k_proj = Linear(dim, dim, rng)
        self.v_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)
        self.dropout_p = dropout_p

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ShapeError(f"attention expects [T, {self.dim}], got {x.shape}")
        t, h, d = x.shape[0], self.heads, self.head_dim
        q, k, v = self.q_proj(x), self.k_proj(x), self.v_proj(x)
        c = 1.0 / math.sqrt(d)
        # contiguous [H, T, d] heads and [H, d, T] keys: BLAS's sum order follows the layout
        qh, vh = (np.ascontiguousarray(p.data.reshape(t, h, d).swapaxes(0, 1)) for p in (q, v))
        kt = np.ascontiguousarray(k.data.reshape(t, h, d).transpose(1, 2, 0))
        y = softmax_forward((qh @ kt) * c)
        observe(self, y)
        mask = dropout_mask(y.shape, y.dtype, self.dropout_p)
        w = y if mask is None else y * mask

        def merge(a):
            return np.swapaxes(a, 0, 1).reshape(t, self.dim)

        def bwd(g):
            g = np.swapaxes(g.reshape(t, h, d), 0, 1)
            gw = g @ np.swapaxes(vh, -1, -2)
            gs = softmax_backward(y, gw if mask is None else gw * mask) * c
            gk = np.swapaxes(np.swapaxes(qh, -1, -2) @ gs, 1, 2)
            return (merge(gs @ np.swapaxes(kt, -1, -2)), merge(gk),
                    merge(np.swapaxes(w, -1, -2) @ g))

        return self.out_proj(record(Tensor(merge(w @ vh)), (q, k, v), bwd))
