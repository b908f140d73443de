"""Diagnostics: diagonality scores, kernel gates, parameter accounting."""

import dataclasses

import numpy as np
import pytest

from multiconv.analysis import (
    attention_diagonality,
    diagonality_by_layer_head,
    diagonality_csv,
    fusion_comparison,
    importance_csv,
    kernel_importance,
    param_breakdown,
)
from multiconv.autodiff import Tensor
from multiconv.config import EncoderConfig
from multiconv.conv_blocks import fusion_param_count, FusionKind
from multiconv.data import Utterance
from multiconv.encoder import build_model
from multiconv.errors import ContractError, ShapeError
from multiconv.layers import observing

RNG = np.random.default_rng(23)


def tiny_cfg(**overrides):
    base = dict(dim=12, layers=2, heads=2, d_inter=16, d_ffn=20,
                conv_block="multiconv", fusion="weighted", kernels=(3, 5),
                n_mels=9, vocab=4)
    base.update(overrides)
    return EncoderConfig(**base)


def make_utts(n, n_mels=9, frames=25):
    return [Utterance(f"u{i}", RNG.normal(size=(frames, n_mels)).astype(np.float32),
                      [1, 2]) for i in range(n)]


# --- diagonality ----------------------------------------------------------

def test_identity_map_scores_one():
    for t in (2, 3, 7):
        assert attention_diagonality(np.eye(t)) == 1.0


def test_uniform_map_T4_scores_seven_twelfths():
    w = np.full((4, 4), 0.25)
    assert attention_diagonality(w) == pytest.approx(7 / 12, abs=1e-12)


def test_antidiagonal_T2_scores_zero():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert attention_diagonality(w) == 0.0


def test_single_frame_scores_one_by_convention():
    assert attention_diagonality(np.array([[1.0]])) == 1.0


def test_non_square_map_rejected():
    with pytest.raises(ShapeError):
        attention_diagonality(np.ones((2, 3)) / 3)
    with pytest.raises(ShapeError):
        attention_diagonality(np.ones(4) / 4)


def test_diagonality_monotone_in_mass_distance():
    # moving mass away from the diagonal can only lower the score
    near = np.array([[0.9, 0.1], [0.1, 0.9]])
    far = np.array([[0.6, 0.4], [0.4, 0.6]])
    assert attention_diagonality(near) > attention_diagonality(far)


def test_layer_head_report_shape_and_range():
    cfg = tiny_cfg()
    model = build_model(dataclasses.replace(cfg, seed=3))
    report = diagonality_by_layer_head(model, make_utts(3))
    assert report.shape == (cfg.layers, cfg.heads)
    assert np.all(report >= 0.0) and np.all(report <= 1.0)


def test_layer_head_report_is_mean_over_utterances():
    cfg = tiny_cfg()
    model = build_model(dataclasses.replace(cfg, seed=3))
    utts = make_utts(2)
    separate = [diagonality_by_layer_head(model, [u]) for u in utts]
    combined = diagonality_by_layer_head(model, utts)
    assert np.allclose(combined, (separate[0] + separate[1]) / 2, atol=1e-12)


def test_layer_head_report_needs_utterances():
    model = build_model(dataclasses.replace(tiny_cfg(), seed=3))
    with pytest.raises(ContractError):
        diagonality_by_layer_head(model, [])


def test_max_utts_truncates():
    cfg = tiny_cfg()
    model = build_model(dataclasses.replace(cfg, seed=3))
    utts = make_utts(3)
    a = diagonality_by_layer_head(model, utts, max_utts=2)
    b = diagonality_by_layer_head(model, utts[:2])
    assert np.array_equal(a, b)


@pytest.mark.parametrize("max_utts", [0, -1])
def test_max_utts_below_one_is_a_contract_error(max_utts):
    # a negative count would otherwise slice utterances off the end
    model = build_model(dataclasses.replace(tiny_cfg(), seed=3))
    utts = make_utts(3)
    with pytest.raises(ContractError):
        diagonality_by_layer_head(model, utts, max_utts=max_utts)
    with pytest.raises(ContractError):
        kernel_importance(model, utts, max_utts=max_utts)


def test_diagonality_csv_format():
    # one row per layer, heads averaged
    matrix = np.array([[0.5, 0.25], [1.0, 0.0]])
    lines = diagonality_csv(matrix).strip().splitlines()
    assert lines[0] == "layer,value"
    assert len(lines) == 1 + 2
    assert lines[1] == "0,0.3750000000"
    assert lines[2] == "1,0.5000000000"


# --- kernel importance ----------------------------------------------------

def test_untrained_gate_reports_uniform_mixture():
    # the gate projection starts at zero, so every frame mixes uniformly
    cfg = tiny_cfg(kernels=(3, 5, 7, 9))
    model = build_model(dataclasses.replace(cfg, seed=4))
    imp = kernel_importance(model, make_utts(2))
    assert imp.shape == (cfg.layers, 4)
    assert np.array_equal(imp, np.full((cfg.layers, 4), 0.25))


def test_importance_rows_sum_to_one_after_perturbation():
    cfg = tiny_cfg()
    model = build_model(dataclasses.replace(cfg, seed=4))
    for layer in model.encoder.layers:
        gate = layer.conv.unit.gate
        gate.weight.data += RNG.normal(size=gate.weight.data.shape).astype(np.float32)
        gate.bias.data += RNG.normal(size=gate.bias.data.shape).astype(np.float32)
    imp = kernel_importance(model, make_utts(2))
    assert np.allclose(imp.sum(axis=1), 1.0, atol=1e-6)
    assert not np.allclose(imp, 0.5)  # perturbed gates moved off uniform


def test_capture_entry_i_comes_from_layer_i():
    # only layer 1 is skewed: its gate weight is zero, so every frame mixes
    # by softmax(bias), and with zero query/key weights its attention gives
    # every key the same score; layer 0 keeps its initial weights
    model = build_model(dataclasses.replace(tiny_cfg(), seed=3))
    skewed_layer = model.encoder.layers[1]
    bias = np.array([2.0, -1.0], dtype=np.float32)
    skewed_layer.conv.unit.gate.bias.data[:] = bias
    skewed_layer.attention.q_proj.weight.data[:] = 0.0
    skewed_layer.attention.k_proj.weight.data[:] = 0.0
    mixture = np.exp(bias) / np.exp(bias).sum()
    rng = np.random.default_rng(5)
    utts = [Utterance(f"u{i}", rng.normal(size=(25, 9)).astype(np.float32), [1, 2])
            for i in range(3)]
    t = 5  # frames after subsampling 25 input frames

    with observing() as seen:
        model(Tensor(utts[0].feats))
    layers = model.encoder.layers
    assert len(layers) == 2 and all(len(maps) == 1 for maps in seen.values())
    gates = [seen[layer.conv.unit][0] for layer in layers]
    attention = [seen[layer.attention][0] for layer in layers]
    for layer, (alpha, weights) in enumerate(zip(gates, attention)):
        assert alpha.shape == (t, 2) and weights.shape == (2, t, t)
        if layer == 1:
            assert np.allclose(alpha, mixture, atol=1e-6)
            assert np.allclose(weights, 1.0 / t, atol=1e-6)
        else:
            assert np.array_equal(alpha, np.full((t, 2), 0.5))
            assert not np.allclose(weights, 1.0 / t, atol=1e-3)

    importance = kernel_importance(model, utts)
    assert np.allclose(importance[1], mixture, atol=1e-6)
    assert np.array_equal(importance[0], np.full(2, 0.5))
    diag = diagonality_by_layer_head(model, utts)
    uniform = attention_diagonality(np.full((t, t), 1.0 / t))
    assert np.allclose(diag[1], uniform, atol=1e-6)
    assert not np.allclose(diag[0], uniform, atol=1e-3)


def test_importance_requires_weighted_fusion():
    for bad in (tiny_cfg(fusion="sum"), tiny_cfg(fusion="concat"),
                tiny_cfg(conv_block="csgu", fusion="weighted")):
        model = build_model(dataclasses.replace(bad, seed=4))
        with pytest.raises(ContractError):
            kernel_importance(model, make_utts(1))


def test_importance_needs_utterances():
    model = build_model(dataclasses.replace(tiny_cfg(), seed=4))
    with pytest.raises(ContractError):
        kernel_importance(model, [])


def test_importance_csv_format():
    imp = np.array([[0.25, 0.75], [0.5, 0.5]])
    lines = importance_csv(imp, (3, 5)).strip().splitlines()
    assert lines[0] == "layer,k3,k5"
    assert len(lines) == 3
    assert lines[1] == "0,0.2500000000,0.7500000000"


# --- parameter accounting -------------------------------------------------

def test_breakdown_components_sum_to_total():
    cfg = tiny_cfg()
    b = param_breakdown(cfg)
    assert b["total"] == b["encoder"] + b["head"]
    per_layer = b["per_layer"]
    layer_total = (per_layer["feed_forward"] + per_layer["attention"]
                   + per_layer["conv_block"] + per_layer["norms"])
    # encoder = subsampler + positional-free layers + final norm (2 * dim)
    assert b["encoder"] == b["subsampler"] + cfg.layers * layer_total + 2 * cfg.dim


def test_breakdown_cross_checks_fusion_formula():
    for fusion in ("sum", "weighted", "concat", "depth"):
        cfg = tiny_cfg(fusion=fusion)
        b = param_breakdown(cfg)
        expected = fusion_param_count(FusionKind(fusion), cfg.inter_width, cfg.kernels)
        assert b["per_layer"]["conv_fusion_part"] == expected


def test_breakdown_total_matches_live_model():
    cfg = tiny_cfg(conv_block="conformer")
    model = build_model(dataclasses.replace(cfg, seed=0))
    assert param_breakdown(cfg)["total"] == model.param_count()
    assert "conv_fusion_part" not in param_breakdown(cfg)["per_layer"]


def test_fusion_comparison_deltas():
    cfg = tiny_cfg(d_inter=32, kernels=(3, 5, 7, 9))
    rows = {r["fusion"]: r["total"] for r in fusion_comparison(cfg)}
    half = cfg.inter_width // 2
    p = len(cfg.kernels)
    # the only difference between variants is the kernels-plus-fusion part,
    # repeated once per layer
    assert rows["weighted"] - rows["sum"] == cfg.layers * (half * p + p)
    assert rows["depth"] - rows["concat"] == cfg.layers * (half * max(cfg.kernels) + half)
    assert rows["concat"] < rows["sum"] < rows["weighted"] < rows["depth"]
