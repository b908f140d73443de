"""Encoder stack assembly, observed maps, determinism, and the baseline swap."""

import dataclasses

import numpy as np
import pytest

from multiconv.autodiff import Tape, Tensor
from multiconv.config import EncoderConfig
from multiconv.ctc import ctc_loss
from multiconv.encoder import CtcModel, Encoder, build_model
from multiconv.errors import ConfigError, ShapeError
from multiconv.layers import observing

RNG = np.random.default_rng(77)


def tiny_cfg(**kw):
    base = dict(dim=12, layers=2, heads=2, d_inter=16, d_ffn=20,
                conv_block="multiconv", fusion="depth", kernels=(3, 5),
                n_mels=9, vocab=4)
    base.update(kw)
    return EncoderConfig(**base)


def test_output_shape_and_dtype():
    enc = Encoder(tiny_cfg(), np.random.default_rng(0)).astype(np.float32)
    feats = RNG.normal(size=(25, 9)).astype(np.float32)
    out = enc(Tensor(feats))
    assert out.shape == (5, 12)  # 25 -> 12 -> 5
    assert out.dtype == np.float32


@pytest.mark.parametrize("block,fusion", [
    ("multiconv", "sum"), ("multiconv", "weighted"), ("multiconv", "concat"),
    ("multiconv", "depth"), ("csgu", "sum"), ("conformer", "sum"),
])
def test_all_block_variants_run(block, fusion):
    cfg = tiny_cfg(conv_block=block, fusion=fusion)
    model = build_model(dataclasses.replace(cfg, seed=0))
    logits = model(Tensor(RNG.normal(size=(16, 9)).astype(np.float32)))
    assert logits.shape == (3, cfg.vocab + 1)
    assert np.isfinite(logits.data).all()


def test_captures_collect_per_layer():
    cfg = tiny_cfg(fusion="weighted", layers=3)
    model = build_model(dataclasses.replace(cfg, seed=1))
    with observing() as seen:
        model(Tensor(RNG.normal(size=(20, 9)).astype(np.float32)))
    layers = model.encoder.layers
    assert len(layers) == 3
    assert set(seen) == {m for layer in layers for m in (layer.attention, layer.conv.unit)}
    assert all(len(maps) == 1 for maps in seen.values())
    assert all(seen[layer.attention][0].shape == (2, 4, 4) for layer in layers)
    assert all(seen[layer.conv.unit][0].shape == (4, 2) for layer in layers)


def test_no_gate_captures_for_other_fusions():
    model = build_model(dataclasses.replace(tiny_cfg(fusion="concat"), seed=1))
    with observing() as seen:
        model(Tensor(RNG.normal(size=(16, 9)).astype(np.float32)))
    layers = model.encoder.layers
    assert set(seen) == {layer.attention for layer in layers}
    assert [len(seen[layer.attention]) for layer in layers] == [1, 1]


def test_dropout_only_on_a_tape_with_a_generator():
    feats = Tensor(RNG.normal(size=(16, 9)).astype(np.float32))
    plain = build_model(tiny_cfg(dropout=0.0, seed=2))(feats).data
    model = build_model(tiny_cfg(dropout=0.5, seed=2))
    assert np.array_equal(model(feats).data, plain)  # no tape
    with Tape():
        assert np.array_equal(model(feats).data, plain)
    rng = np.random.default_rng(0)
    with Tape(rng):
        dropped = model(feats).data
    assert not np.array_equal(dropped, plain)
    with Tape(np.random.default_rng(0)):
        assert np.array_equal(model(feats).data, dropped)


@pytest.mark.parametrize("block,fusion,nodes", [
    ("multiconv", "sum", 67), ("multiconv", "weighted", 71), ("multiconv", "concat", 67),
    ("multiconv", "depth", 69), ("csgu", "depth", 67), ("conformer", "depth", 67),
])
def test_training_forward_records_a_pinned_node_count(block, fusion, nodes):
    # the toy geometry on 84 frames (20 after subsampling), dropout drawing,
    # CTC loss included: each residual sum and each glu is one node, the
    # gating unit's norm and gate read their halves of the input in place,
    # and every fusion runs inside its one conv node
    cfg = EncoderConfig(dim=64, layers=2, heads=4, d_inter=384, kernels=(3, 7, 11, 15),
                        conv_block=block, fusion=fusion, n_mels=80)
    model = build_model(cfg)
    feats = Tensor(np.random.default_rng(0).normal(size=(84, 80)).astype(np.float32))
    with Tape(np.random.default_rng(1)) as tape:
        ctc_loss(model(feats), [1, 2])
        assert len(tape) == nodes


def test_same_seed_same_output():
    feats = RNG.normal(size=(18, 9)).astype(np.float32)
    a = build_model(dataclasses.replace(tiny_cfg(), seed=5))(Tensor(feats)).data
    b = build_model(dataclasses.replace(tiny_cfg(), seed=5))(Tensor(feats)).data
    assert np.array_equal(a, b)
    c = build_model(dataclasses.replace(tiny_cfg(), seed=6))(Tensor(feats)).data
    assert not np.array_equal(a, c)


def test_single_kernel_sum_encoder_equals_csgu_encoder():
    # same seed and a single kernel: parameter draws align one-to-one, and
    # the multi-kernel block must follow the exact same arithmetic path
    kernels = (7,)
    multi = build_model(dataclasses.replace(
        tiny_cfg(conv_block="multiconv", fusion="sum", kernels=kernels), seed=9))
    plain = build_model(dataclasses.replace(
        tiny_cfg(conv_block="csgu", kernels=kernels), seed=9))
    for (name_m, pm), (name_p, pp) in zip(multi.named_parameters(),
                                          plain.named_parameters()):
        assert pm.data.shape == pp.data.shape, (name_m, name_p)
        assert np.array_equal(pm.data, pp.data), (name_m, name_p)
    feats = RNG.normal(size=(30, 9)).astype(np.float32)
    assert np.array_equal(multi(Tensor(feats)).data, plain(Tensor(feats)).data)


def test_position_table_grows_for_long_inputs():
    enc = Encoder(tiny_cfg(), np.random.default_rng(0))
    assert enc._pos_table.shape[0] == 64
    long_feats = RNG.normal(size=(600, 9)).astype(np.float32)  # T = 149
    out = enc(Tensor(long_feats))
    assert out.shape[0] == 149
    assert enc._pos_table.shape[0] >= 149
    short = enc(Tensor(RNG.normal(size=(16, 9)).astype(np.float32)))
    assert short.shape[0] == 3


def test_minimum_input_length_enforced():
    enc = Encoder(tiny_cfg(), np.random.default_rng(0))
    with pytest.raises(ShapeError):
        enc(Tensor(np.ones((6, 9), dtype=np.float32)))


def test_config_validation_at_build():
    with pytest.raises(ConfigError):
        Encoder(tiny_cfg(heads=5), np.random.default_rng(0))  # 12 % 5 != 0
    with pytest.raises(ConfigError):
        Encoder(tiny_cfg(conv_block="dense"), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        # concat needs P to divide d_inter/2 = 8
        Encoder(tiny_cfg(fusion="concat", kernels=(3, 5, 7)),
                np.random.default_rng(0))


@pytest.mark.parametrize("block,fusion", [
    ("multiconv", "weighted"), ("multiconv", "depth"), ("conformer", "depth"),
])
def test_float32_model_is_its_float64_twin_cast(block, fusion):
    # one draw decides both precisions: a float32 build casts the very
    # float64 values that a float64 build keeps
    cfg = tiny_cfg(conv_block=block, fusion=fusion)
    narrow = build_model(cfg)
    wide = build_model(cfg, dtype=np.float64)
    for (name_n, pn), (name_w, pw) in zip(narrow.named_parameters(),
                                          wide.named_parameters(), strict=True):
        assert name_n == name_w
        assert pn.dtype == np.float32 and pw.dtype == np.float64
        assert np.array_equal(pn.data, pw.data.astype(np.float32))
    feats = Tensor(RNG.normal(size=(20, 9)).astype(np.float32))
    wide.astype(np.float32)
    assert np.array_equal(narrow(feats).data, wide(feats).data)


def test_param_count_is_sum_of_parts():
    model = build_model(dataclasses.replace(tiny_cfg(), seed=0))
    total = sum(p.size for p in model.parameters())
    assert model.param_count() == total
    assert model.param_count() == (model.encoder.param_count()
                                   + model.head.param_count())


def test_head_maps_to_vocab_plus_blank():
    cfg = tiny_cfg(vocab=6)
    model = build_model(dataclasses.replace(cfg, seed=0))
    logits = model(Tensor(RNG.normal(size=(16, 9)).astype(np.float32)))
    assert logits.shape[1] == 7


def test_parameter_names_are_unique_and_stable():
    model = build_model(dataclasses.replace(tiny_cfg(), seed=0))
    names = [n for n, _ in model.named_parameters()]
    assert len(names) == len(set(names))
    assert names[0].startswith("encoder.subsampler.")
    assert any(n.startswith("encoder.layers.1.") for n in names)
    other = build_model(dataclasses.replace(tiny_cfg(), seed=1))
    assert names == [n for n, _ in other.named_parameters()]
