"""Model diagnostics: attention alignment, kernel importance, parameter counts.

All statistics are computed from forward passes run inside an
:func:`~multiconv.layers.observing` block, which collects the maps that
each layer's attention and kernel gate observe, or from the parameter
tensors themselves; nothing here mutates the model.
"""

from __future__ import annotations

import dataclasses
import io

import numpy as np

from .autodiff import Tensor
from .config import EncoderConfig
from .conv_blocks import FusionKind, fusion_param_count
from .data import Utterance
from .encoder import CtcModel, build_model
from .errors import ContractError, IntegrityError, ShapeError
from .layers import observing


def attention_diagonality(weights: np.ndarray) -> float:
    """How concentrated an attention map is on the main diagonal, in [0, 1].

    For row-stochastic weights w over a length-T sequence:

        1 - sum_ij w[i, j] * |i - j| / (T * (T - 1))

    The identity map scores 1; the map that throws all mass to the opposite
    end of the sequence scores 0. A single-frame map is perfectly aligned by
    convention.
    """
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ShapeError(f"attention map must be square, got {weights.shape}")
    t = weights.shape[0]
    if t == 1:
        return 1.0
    idx = np.arange(t, dtype=np.float64)
    distance = np.abs(idx[:, None] - idx[None, :])
    penalty = float((weights.astype(np.float64) * distance).sum())
    return 1.0 - penalty / (t * (t - 1))


def _layer_maps(model: CtcModel, utts: list[Utterance], max_utts: int | None, source, what):
    """For each of the first ``max_utts`` utterances (all when None), the
    list whose entry i is the one map that ``source(layer i)`` observed."""
    if max_utts is not None and max_utts < 1:
        raise ContractError(f"max_utts must be at least 1, got {max_utts}")
    utts = utts[:max_utts]
    if not utts:
        raise ContractError(f"no utterances to read {what} maps from")
    sources = [source(layer) for layer in model.encoder.layers]
    for utt in utts:
        with observing() as seen:
            model(Tensor(utt.feats))
        counts = [len(seen.get(module, ())) for module in sources]
        if counts != [1] * len(sources):
            raise IntegrityError(f"layers observed {counts} {what} maps, expected one each")
        yield [seen[module][0] for module in sources]


def diagonality_by_layer_head(model: CtcModel, utts: list[Utterance],
                              max_utts: int | None = None) -> np.ndarray:
    """Mean attention diagonality per (layer, head) over ``utts``."""
    cfg = model.cfg
    total = np.zeros((cfg.layers, cfg.heads))
    for maps in _layer_maps(model, utts, max_utts, lambda layer: layer.attention, "attention"):
        total += [[attention_diagonality(w) for w in weights] for weights in maps]
    return total / len(utts[:max_utts])


def diagonality_csv(matrix: np.ndarray) -> str:
    """Per-layer export, heads averaged: one ``layer,value`` row per layer."""
    out = io.StringIO()
    out.write("layer,value\n")
    per_layer = matrix.mean(axis=1)
    for layer in range(matrix.shape[0]):
        out.write(f"{layer},{per_layer[layer]:.10f}\n")
    return out.getvalue()


def kernel_importance(model: CtcModel, utts: list[Utterance],
                      max_utts: int | None = None) -> np.ndarray:
    """Mean per-layer kernel mixture weights, shape [layers, P].

    Averages the weighted-fusion gate softmax over every frame of ``utts``;
    each row sums to one. Only defined for models whose convolution block
    carries a kernel gate.
    """
    cfg = model.cfg
    if cfg.conv_block != "multiconv" or cfg.fusion != FusionKind.WEIGHTED.value:
        raise ContractError(
            "kernel importance needs the weighted fusion; "
            f"model uses {cfg.conv_block}/{cfg.fusion}")
    total = np.zeros((cfg.layers, len(cfg.kernels)))
    frames = np.zeros(cfg.layers)
    for maps in _layer_maps(model, utts, max_utts, lambda layer: layer.conv.unit, "gate"):
        total += [alpha.astype(np.float64).sum(axis=0) for alpha in maps]
        frames += [alpha.shape[0] for alpha in maps]
    return total / frames[:, None]


def importance_csv(importance: np.ndarray, kernels) -> str:
    out = io.StringIO()
    header = ",".join(f"k{k}" for k in kernels)
    out.write(f"layer,{header}\n")
    for layer in range(importance.shape[0]):
        row = ",".join(f"{v:.10f}" for v in importance[layer])
        out.write(f"{layer},{row}\n")
    return out.getvalue()


def param_breakdown(cfg: EncoderConfig) -> dict:
    """Instantiate the model and count parameters per component.

    For multi-kernel blocks the measured convolution/fusion count is
    cross-checked against the closed-form formula; a mismatch raises
    :class:`IntegrityError` because it means the implementation and the
    accounting have diverged.
    """
    model = build_model(cfg)
    enc = model.encoder
    layers = enc.layers
    breakdown = {
        "config": cfg.to_dict(),
        "total": model.param_count(),
        "encoder": enc.param_count(),
        "head": model.head.param_count(),
        "subsampler": enc.subsampler.param_count(),
        "per_layer": {
            "feed_forward": layers[0].ffn1.param_count() + layers[0].ffn2.param_count(),
            "attention": layers[0].attention.param_count(),
            "conv_block": layers[0].conv.param_count(),
            "norms": (layers[0].norm_ffn1.param_count() + layers[0].norm_att.param_count()
                      + layers[0].norm_conv.param_count() + layers[0].norm_ffn2.param_count()),
        },
    }
    if cfg.conv_block == "multiconv":
        unit = layers[0].conv.unit
        measured = unit.param_count() - unit.norm.param_count()  # all but the shared norm
        expected = fusion_param_count(FusionKind(cfg.fusion), cfg.inter_width, cfg.kernels)
        if measured != expected:
            raise IntegrityError(
                f"conv/fusion parameters: measured {measured}, formula gives {expected}")
        breakdown["per_layer"]["conv_fusion_part"] = measured
    return breakdown


def fusion_comparison(cfg: EncoderConfig) -> list[dict]:
    """Total parameter counts for the four fusion rules at this geometry."""
    rows = []
    for kind in FusionKind:
        variant = dataclasses.replace(cfg, conv_block="multiconv", fusion=kind.value)
        rows.append({"fusion": kind.value, "total": param_breakdown(variant)["total"]})
    return rows
