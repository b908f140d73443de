"""Multi-head scaled dot-product self-attention over a single sequence.

Sequences are processed one at a time ([T, dim], no padding), so no masking
is needed; every query attends to every frame. Each call hands its
per-head weight map to :func:`~multiconv.layers.observe`, from where an
``observing()`` block collects it for the alignment diagnostics.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor, matmul, reshape, scale, swapaxes
from .errors import ConfigError, ShapeError
from .layers import Linear, Module, dropout, observe, softmax


class MultiHeadAttention(Module):
    """Standard multi-head self-attention with a final output projection.

    Each call observes its post-softmax weights, a [heads, T, T] array whose
    row ``[h, q]`` is a distribution over keys.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, dropout_p: float = 0.0):
        if dim % heads:
            raise ConfigError(f"dim {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.q_proj = Linear(dim, dim, rng)
        self.k_proj = Linear(dim, dim, rng)
        self.v_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)
        self.dropout_p = dropout_p

    def _split_heads(self, x: Tensor, t: int) -> Tensor:
        x = reshape(x, (t, self.heads, self.head_dim))
        return swapaxes(x, 0, 1)

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ShapeError(f"attention expects [T, {self.dim}], got {x.shape}")
        t = x.shape[0]
        q = self._split_heads(self.q_proj(x), t)
        k = self._split_heads(self.k_proj(x), t)
        v = self._split_heads(self.v_proj(x), t)
        scores = scale(matmul(q, swapaxes(k, 1, 2)), 1.0 / math.sqrt(self.head_dim))
        weights = softmax(scores)
        observe(self, weights.data)
        weights = dropout(weights, self.dropout_p)
        ctx = matmul(weights, v)
        ctx = reshape(swapaxes(ctx, 0, 1), (t, self.dim))
        return self.out_proj(ctx)
