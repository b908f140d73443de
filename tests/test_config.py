"""Config records: defaults, derived widths, validation, exact JSON round trips."""

import dataclasses
import json

import numpy as np
import pytest

from multiconv.config import SUBSAMPLER_FLOOR, DataSpec, EncoderConfig, TrainConfig
from multiconv.errors import ConfigError
from multiconv.layers import Subsampler, sinusoid_table


def test_derived_widths_default_to_multiples_of_dim():
    cfg = EncoderConfig(dim=100)
    assert cfg.inter_width == 600
    assert cfg.ffn_width == 400
    explicit = EncoderConfig(dim=100, d_inter=64, d_ffn=48)
    assert explicit.inter_width == 64
    assert explicit.ffn_width == 48


def test_default_encoder_matches_reference_geometry():
    cfg = EncoderConfig()
    assert (cfg.dim, cfg.layers, cfg.heads) == (256, 12, 4)
    assert cfg.inter_width == 1536
    assert cfg.kernels == (7, 15, 23, 31)
    assert cfg.conv_block == "multiconv" and cfg.fusion == "depth"
    assert cfg.dropout == 0.1
    assert cfg.seed == 0
    cfg.validate()


@pytest.mark.parametrize("cls", [EncoderConfig, DataSpec, TrainConfig])
def test_json_round_trip_is_exact(cls, tmp_path):
    cfg = cls()
    path = tmp_path / "cfg.json"
    cfg.save(path)
    assert cls.load(path) == cfg


def test_round_trip_preserves_non_defaults(tmp_path):
    cfg = EncoderConfig(dim=64, layers=3, heads=2, d_inter=384, d_ffn=256,
                        conv_block="multiconv", fusion="weighted",
                        kernels=(3, 7, 11, 15), n_mels=40, vocab=12, dropout=0.1)
    path = tmp_path / "enc.json"
    cfg.save(path)
    back = EncoderConfig.load(path)
    assert back == cfg
    assert isinstance(back.kernels, tuple)
    assert all(isinstance(k, int) for k in back.kernels)


def test_float_fields_round_trip_to_the_bit(tmp_path):
    cfg = TrainConfig(lr=1.0 / 3.0, eps=1e-9)
    path = tmp_path / "t.json"
    cfg.save(path)
    back = TrainConfig.load(path)
    assert back.lr == cfg.lr  # repr round trip, not approximate


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    raw = EncoderConfig().to_dict()
    raw["vocabulary"] = 8
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="unknown keys"):
        EncoderConfig.load(path)


def test_missing_keys_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    raw = DataSpec().to_dict()
    del raw["seed"]
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="missing keys"):
        DataSpec.load(path)


def test_load_validates(tmp_path):
    path = tmp_path / "cfg.json"
    raw = EncoderConfig().to_dict()
    raw["heads"] = 5  # 256 % 5 != 0
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="divisible"):
        EncoderConfig.load(path)


CONFIGS = [EncoderConfig, DataSpec, TrainConfig]


def _wrong_type_values(cls):
    """(field, value) pairs whose JSON value does not fit the field's type."""
    pairs = []
    for f in dataclasses.fields(cls):
        pairs.append((f.name, None))
        pairs.append((f.name, 5 if f.type == "str" else "5"))
        if f.type == "int":
            pairs += [(f.name, 5.5), (f.name, True)]
    return pairs


@pytest.mark.parametrize("cls", CONFIGS)
def test_corrupt_config_file_raises_config_error(cls, tmp_path):
    path = tmp_path / "cfg.json"
    text = json.dumps(cls().to_dict())
    for raw in (text[:-7].encode(), b"\xff\xfe\x00{", b"[1, 2]", b""):
        path.write_bytes(raw)
        with pytest.raises(ConfigError):
            cls.load(path)
    for name, value in _wrong_type_values(cls):
        path.write_text(json.dumps({**cls().to_dict(), name: value}))
        with pytest.raises(ConfigError, match=name):
            cls.load(path)


@pytest.mark.parametrize("kernels", [None, "357", [3, "5"], [3.0, 5.0], [True], 7])
def test_kernels_field_must_be_a_list_of_ints(kernels, tmp_path):
    path = tmp_path / "enc.json"
    path.write_text(json.dumps({**EncoderConfig().to_dict(), "kernels": kernels}))
    with pytest.raises(ConfigError, match="kernels"):
        EncoderConfig.load(path)


def test_float_fields_accept_json_integers(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({**TrainConfig().to_dict(), "lr": 1, "target_ter": 0}))
    cfg = TrainConfig.load(path)
    assert (cfg.lr, cfg.target_ter) == (1.0, 0.0)
    assert isinstance(cfg.lr, float)


@pytest.mark.parametrize("bad", [
    dict(dim=0),
    dict(heads=3),                  # 256 % 3
    dict(d_inter=33),               # odd inner width cannot split
    dict(conv_block="dense"),
    dict(fusion="mean"),
    dict(kernels=()),
    dict(kernels=(4,)),             # even width has no centre tap
    dict(kernels=(-3,)),
    dict(kernels=(5, 3)),           # widths must grow
    dict(kernels=(3, 3)),
    dict(kernels=(3.7,)),           # not truncated to 3
    dict(kernels=("3",)),
    dict(kernels=(True,)),
    dict(fusion="concat", kernels=(3, 5, 7, 9, 11)),  # 5 does not divide 768
    dict(n_mels=6),
    dict(vocab=0),
    dict(dropout=1.0),
    dict(dropout=-0.1),
    dict(dropout=float("nan")),
    dict(dropout=float("inf")),
    dict(d_ffn=-5),                 # 0 means the default width; below it is nothing
    dict(d_inter=-4, fusion="sum"),  # even, so the gate-width rule alone passes it
])
def test_encoder_validation(bad):
    with pytest.raises(ConfigError):
        EncoderConfig(**bad).validate()


def test_odd_dim_fails_validation_by_the_position_table_rule(tmp_path):
    # heads, d_inter and the kernels all fit dim 5: only the sine/cosine
    # table, which build_model always makes, needs an even width
    odd = EncoderConfig(dim=5, heads=5, d_inter=10, kernels=(3,), fusion="sum")
    with pytest.raises(ConfigError, match="even dim, got 5"):
        odd.validate()
    path = tmp_path / "encoder.json"
    odd.save(path)
    with pytest.raises(ConfigError, match="even dim, got 5"):
        EncoderConfig.load(path)
    with pytest.raises(ConfigError, match="even dim, got 5"):
        sinusoid_table(4, 5)


@pytest.mark.parametrize("bad", [
    dict(vocab=0),
    dict(n_train=0),
    dict(min_tokens=0),
    dict(min_tokens=5, max_tokens=4),
    dict(min_tokens=1, frames_per_token=6),  # 6 frames < subsampler floor
    dict(noise_std=-0.5),
    dict(noise_std=float("nan")),   # NaN passes every ordered comparison
    dict(noise_std=float("inf")),
    dict(n_mels=6),                 # no model reads fewer than 7 mel bins
])
def test_data_spec_validation(bad):
    with pytest.raises(ConfigError):
        DataSpec(**bad).validate()


def test_subsampler_floor_is_where_its_output_reaches_one_frame():
    sub = Subsampler(n_mels=SUBSAMPLER_FLOOR, dim=2, rng=np.random.default_rng(0))
    assert sub.out_len(SUBSAMPLER_FLOOR) == 1
    assert sub.out_len(SUBSAMPLER_FLOOR - 1) == 0
    EncoderConfig(n_mels=SUBSAMPLER_FLOOR).validate()
    DataSpec(min_tokens=1, frames_per_token=SUBSAMPLER_FLOOR).validate()
    with pytest.raises(ConfigError, match="^n_mels must be at least 7 for the two conv stages$"):
        EncoderConfig(n_mels=SUBSAMPLER_FLOOR - 1).validate()
    with pytest.raises(ConfigError,
                       match="^shortest utterance must reach the 7-frame subsampler floor$"):
        DataSpec(min_tokens=1, frames_per_token=SUBSAMPLER_FLOOR - 1).validate()


@pytest.mark.parametrize("bad", [
    dict(steps=0),
    dict(batch_size=0),
    dict(lr=-1e-3),
    dict(eps=0.0),
    dict(beta1=1.0),
    dict(beta2=-0.1),
    dict(clip_norm=0.0),
    dict(eval_every=0),
    dict(lr=float("nan")),
    dict(lr=float("inf")),
    dict(eps=float("nan")),
    dict(clip_norm=float("nan")),
    dict(target_ter=float("nan")),
])
def test_train_config_validation(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**bad).validate()


@pytest.mark.parametrize("cls", [EncoderConfig, DataSpec, TrainConfig])
def test_negative_seed_is_rejected_by_name(cls):
    # numpy would reject it later, naming no field
    cls(seed=0).validate()
    with pytest.raises(ConfigError, match="^seed must be non-negative, got -1$"):
        cls(seed=-1).validate()


def test_zero_lr_is_legal():
    TrainConfig(lr=0.0).validate()


def test_early_stop_target_sentinel():
    assert TrainConfig().early_stop_ter is None
    assert TrainConfig(target_ter=-1.0).early_stop_ter is None
    assert TrainConfig(target_ter=0.0).early_stop_ter == 0.0
    assert TrainConfig(target_ter=0.05).early_stop_ter == 0.05


def test_configs_are_frozen():
    cfg = EncoderConfig()
    with pytest.raises(Exception):
        cfg.dim = 128
