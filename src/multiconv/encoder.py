"""Speech encoder: subsampling front end plus a stack of macaron layers.

Each layer applies, with pre-norm residuals:

    x = x + 1/2 ffn(x)          (feed-forward, swish)
    x = x + self_attention(x)
    x = x + conv_block(x)       (gated multi-kernel conv, or a baseline)
    x = x + 1/2 ffn(x)
    x = final_norm(x)           (after the last layer only)

Each of the four sums is one :func:`~multiconv.layers.residual` node,
x + c * dropout(h), where h = sublayer(norm(x)). The encoder input takes the
same rule, positions + sqrt(dim) * features with no dropout inside, and
then drops out the sum.

The convolution half-block is pluggable so the same stack hosts the
multi-kernel unit and both single-kernel baselines.
"""

from __future__ import annotations

import math

import numpy as np

from .attention import MultiHeadAttention
from .autodiff import Tensor
from .config import EncoderConfig, parse_fusion
from .conv_blocks import ConformerConvBlock, CsguBlock, MultiConvBlock
from .errors import ConfigError
from .layers import (FeedForward, LayerNorm, Linear, Module, Subsampler, dropout, residual,
                     sinusoid_table)


def _make_conv_block(cfg: EncoderConfig, rng: np.random.Generator):
    widest = max(cfg.kernels)
    if cfg.conv_block == "multiconv":
        return MultiConvBlock(cfg.dim, cfg.inter_width, cfg.kernels,
                              parse_fusion(cfg.fusion), rng, dropout_p=cfg.dropout)
    if cfg.conv_block == "csgu":
        return CsguBlock(cfg.dim, cfg.inter_width, widest, rng, dropout_p=cfg.dropout)
    if cfg.conv_block == "conformer":
        return ConformerConvBlock(cfg.dim, widest, rng, dropout_p=cfg.dropout)
    raise ConfigError(f"unknown conv_block {cfg.conv_block!r}")


class EncoderLayer(Module):
    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        dim = cfg.dim
        self.norm_ffn1 = LayerNorm(dim)
        self.ffn1 = FeedForward(dim, cfg.ffn_width, rng, dropout_p=cfg.dropout)
        self.norm_att = LayerNorm(dim)
        self.attention = MultiHeadAttention(dim, cfg.heads, rng, dropout_p=cfg.dropout)
        self.norm_conv = LayerNorm(dim)
        self.conv = _make_conv_block(cfg, rng)
        self.norm_ffn2 = LayerNorm(dim)
        self.ffn2 = FeedForward(dim, cfg.ffn_width, rng, dropout_p=cfg.dropout)
        self.dropout_p = cfg.dropout

    def __call__(self, x: Tensor) -> Tensor:
        p = self.dropout_p
        x = residual(x, self.ffn1(self.norm_ffn1(x)), 0.5, p)
        x = residual(x, self.attention(self.norm_att(x)), 1.0, p)
        x = residual(x, self.conv(self.norm_conv(x)), 1.0, p)
        return residual(x, self.ffn2(self.norm_ffn2(x)), 0.5, p)


class Encoder(Module):
    """Maps raw features [L, n_mels] to hidden states [T, dim]."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        self.subsampler = Subsampler(cfg.n_mels, cfg.dim, rng)
        self.layers = [EncoderLayer(cfg, rng) for _ in range(cfg.layers)]
        self.final_norm = LayerNorm(cfg.dim)
        self._pos_table = sinusoid_table(64, cfg.dim)
        self._x_scale = math.sqrt(cfg.dim)

    def _positions(self, t: int, dtype) -> Tensor:
        if t > self._pos_table.shape[0]:
            grown = max(t, 2 * self._pos_table.shape[0])
            self._pos_table = sinusoid_table(grown, self.cfg.dim)
        return Tensor(self._pos_table[:t].astype(dtype, copy=False))

    def __call__(self, feats: Tensor) -> Tensor:
        x = self.subsampler(feats)
        x = residual(self._positions(x.shape[0], x.dtype), x, self._x_scale, 0.0)
        x = dropout(x, self.cfg.dropout)
        for layer in self.layers:
            x = layer(x)
        return self.final_norm(x)


class CtcModel(Module):
    """Encoder plus a linear head over the vocabulary and the blank symbol.

    Output class 0 is the blank; classes 1..vocab are the real tokens.
    """

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        self.encoder = Encoder(cfg, rng)
        self.head = Linear(cfg.dim, cfg.vocab + 1, rng)

    @property
    def cfg(self) -> EncoderConfig:
        return self.encoder.cfg

    def __call__(self, feats: Tensor) -> Tensor:
        return self.head(self.encoder(feats))


def build_model(cfg: EncoderConfig, dtype=np.float32) -> CtcModel:
    """Construct a model whose initial weights are fully pinned by ``cfg.seed``,
    with every parameter cast to ``dtype``."""
    model = CtcModel(cfg, np.random.default_rng(cfg.seed))
    model.astype(dtype)
    return model
