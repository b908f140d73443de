"""Gated convolution blocks: the multi-kernel unit, its fusions, and baselines.

The central module normalizes the right half of its input channels,
passes it through one or more temporal convolutions, fuses the branch
outputs, and uses the result to gate the untouched left half elementwise:

    a            [T, 2*h]   (post-expansion activations)
    z          = layer_norm(a[:, h:])
    v_i        = conv_k_i(z)            for each kernel width k_i
    v          = fuse(v_1, ..., v_P)
    out        = a[:, :h] * v           [T, h]

Four fusion rules are provided:

* ``sum``       adds the branch outputs.
* ``weighted``  adds them with per-frame softmax weights from a linear gate
                over z. The gate starts at zero, so fusion begins as the
                uniform average and the learned weights are readable as
                kernel importances.
* ``concat``    gives each branch h/P output channels (grouped convolution
                over P-channel input blocks) and concatenates them.
* ``depth``     is ``concat`` followed by one extra depthwise convolution
                whose width is the largest branch kernel.

With a single kernel and ``sum`` fusion the unit is the plain
convolutional spatial gating unit; the ``csgu`` baseline block,
:class:`CsguBlock`, is exactly that.

Parameters are held per branch, but every fusion is one conv node that is
handed the branches' kernel and bias lists: ``sum`` is
:func:`~multiconv.layers.depthwise_conv` over the centred kernels added
into one, plus the summed biases, ``weighted`` the same op mixing each
kernel's own output by the gate's softmax (``mix``), and ``concat``/``depth``
:func:`~multiconv.layers.grouped_conv` over one kernel holding the centred
ones, its output in branch order with each branch's bias added. Each op
hands every branch its own gradients, so the node count does not grow with P.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor, record
from .config import FusionKind, check_gate_width, check_kernels
from .errors import ConfigError, ShapeError
from .layers import (
    DepthwiseConv1d,
    GroupedConv1d,
    LayerNorm,
    Linear,
    Module,
    depthwise_conv,
    dropout,
    gelu,
    glu,
    grouped_conv,
    layer_norm,
    observe,
    softmax,
    swish,
)


def fusion_param_count(fusion: FusionKind, d_inter: int, kernels: Sequence[int]) -> int:
    """Closed-form parameter count of the gating unit's convolution/fusion part.

    Counts conv weights and biases plus, for ``weighted``, the gate
    projection; the shared norm and elementwise gate are excluded.
    """
    kernels = check_kernels(kernels)
    half = d_inter // 2
    p = len(kernels)
    per_branch_depthwise = sum(half * k + half for k in kernels)
    if fusion is FusionKind.SUM:
        return per_branch_depthwise
    if fusion is FusionKind.WEIGHTED:
        return per_branch_depthwise + (half * p + p)
    grouped = sum(half * k for k in kernels) + half
    if fusion is FusionKind.CONCAT:
        return grouped
    if fusion is FusionKind.DEPTH:
        return grouped + (half * max(kernels) + half)
    raise ConfigError(f"unhandled fusion {fusion}")


def gate(a: Tensor, v: Tensor) -> Tensor:
    """The gate a[:, :h] * v of a[T, 2h] by v[T, h], as one node that reads
    a's left half in place; backward leaves the right half of a's gradient 0."""
    left = a.data[:, :v.shape[1]]

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.multiply(g, v.data, out=ga[:, :v.shape[1]])
        return ga, g * left

    return record(Tensor(left * v.data), (a, v), bwd)


class Mcsgu(Module):
    """Multi-kernel convolutional spatial gating unit, [T, d_inter] -> [T, d_inter/2].

    The norm node (``self.norm``'s parameters) and the :func:`gate` node
    read the two halves of the input in place; no node copies them out.
    With the ``weighted`` fusion each call observes its per-frame kernel
    mixture, a [T, P] array whose rows sum to one.
    """

    def __init__(self, d_inter: int, kernels: Sequence[int], fusion: FusionKind,
                 rng: np.random.Generator):
        kernels = check_kernels(kernels)
        check_gate_width(d_inter, fusion, len(kernels))
        half = d_inter // 2
        p = len(kernels)
        self.d_inter = d_inter
        self.half = half
        self.kernels = kernels
        self.fusion = fusion
        self.norm = LayerNorm(half)
        self.gate: Linear | None = None
        self.final_conv: DepthwiseConv1d | None = None
        if fusion in (FusionKind.SUM, FusionKind.WEIGHTED):
            self.branches = [DepthwiseConv1d(half, k, rng) for k in kernels]
            if fusion is FusionKind.WEIGHTED:
                # Zero start: the gate softmax opens at the uniform mixture and
                # its learned rows double as kernel-importance readouts.
                gate = Linear(half, p, rng)
                gate.weight.data[:] = 0.0
                gate.bias.data[:] = 0.0
                self.gate = gate
        elif fusion in (FusionKind.CONCAT, FusionKind.DEPTH):
            self.branches = [
                GroupedConv1d(half, half // p, k, groups=half // p, rng=rng)
                for k in kernels
            ]
            if fusion is FusionKind.DEPTH:
                self.final_conv = DepthwiseConv1d(half, max(kernels), rng)
        else:
            raise ConfigError(f"unhandled fusion {fusion}")

    def __call__(self, a: Tensor) -> Tensor:
        if a.ndim != 2 or a.shape[1] != self.d_inter:
            raise ShapeError(f"gating unit expects [T, {self.d_inter}], got {a.shape}")
        z = layer_norm(a, self.norm.gamma, self.norm.beta, lo=self.half)
        # the branch parameters are read on every call, so swapping one
        # (as the gradient audit does) reaches the folded kernel
        weights = [conv.weight for conv in self.branches]
        biases = [conv.bias for conv in self.branches]
        if self.fusion is FusionKind.SUM:
            fused = depthwise_conv(z, weights, biases)
        elif self.fusion is FusionKind.WEIGHTED:
            alpha = softmax(self.gate(z))
            observe(self, alpha.data)
            fused = depthwise_conv(z, weights, biases, mix=alpha)
        else:
            fused = grouped_conv(z, weights, biases)
            if self.final_conv is not None:
                fused = self.final_conv(fused)
        return gate(a, fused)


class MultiConvBlock(Module):
    """Convolution half-block for an encoder layer: expand, gate, project back.

    Input is the pre-normalized hidden state [T, dim]; output is the residual
    branch value of the same shape.
    """

    def __init__(self, dim: int, d_inter: int, kernels: Sequence[int],
                 fusion: FusionKind, rng: np.random.Generator,
                 dropout_p: float = 0.0):
        self.up = Linear(dim, d_inter, rng)
        self.unit = Mcsgu(d_inter, kernels, fusion, rng)
        self.down = Linear(d_inter // 2, dim, rng)
        self.dropout_p = dropout_p

    def __call__(self, x: Tensor) -> Tensor:
        a = gelu(self.up(x))
        h = self.unit(a)
        h = dropout(h, self.dropout_p)
        return self.down(h)


class CsguBlock(MultiConvBlock):
    """Single-kernel gated-convolution half-block, the ``csgu`` baseline: the
    multi-kernel block with one kernel and ``sum`` fusion."""

    def __init__(self, dim: int, d_inter: int, kernel: int,
                 rng: np.random.Generator, dropout_p: float = 0.0):
        super().__init__(dim, d_inter, (kernel,), FusionKind.SUM, rng, dropout_p=dropout_p)

    # bound here, not inherited, so a tracer that patches both classes'
    # __call__ wraps each once and restores each to its own original
    __call__ = MultiConvBlock.__call__


class ConformerConvBlock(Module):
    """Classic convolution half-block: pointwise expand + GLU, depthwise conv,
    norm, swish, pointwise project.

    Normalization after the depthwise convolution is a layer norm rather
    than a batch norm: sequences are processed one at a time here, so there
    are no batch statistics to track.
    """

    def __init__(self, dim: int, kernel: int, rng: np.random.Generator, dropout_p: float = 0.0):
        self.pw_in = Linear(dim, 2 * dim, rng)
        self.conv = DepthwiseConv1d(dim, kernel, rng)
        self.norm = LayerNorm(dim)
        self.pw_out = Linear(dim, dim, rng)
        self.dropout_p = dropout_p

    def __call__(self, x: Tensor) -> Tensor:
        h = glu(self.pw_in(x))
        h = swish(self.norm(self.conv(h)))
        h = dropout(h, self.dropout_p)
        return self.pw_out(h)
