"""Configuration records for models, data synthesis, and training.

Each record is a frozen dataclass with ``save``/``load`` JSON helpers. The
JSON round trip is exact: ints stay ints, floats go through repr, and loads
reject unknown keys so stale files fail loudly instead of half-applying.
A file that is not JSON, or holds a value of the wrong type, fails with
:class:`~multiconv.errors.ConfigError` too.

The names of the conv blocks and the fusion rules, the kernel-list rule and
the gate-width rules are defined here once; the model, the CLI and the
loaders use these.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral
from pathlib import Path

from .errors import ConfigError, replacing


class FusionKind(str, Enum):
    SUM = "sum"
    WEIGHTED = "weighted"
    CONCAT = "concat"
    DEPTH = "depth"


FUSIONS = tuple(kind.value for kind in FusionKind)
CONV_BLOCKS = ("multiconv", "csgu", "conformer")
# the two stride-2 3x3 conv stages of the subsampler need 7 inputs for 1 output
SUBSAMPLER_FLOOR = 7


def parse_fusion(name: str) -> FusionKind:
    try:
        return FusionKind(name)
    except ValueError:
        raise ConfigError(
            f"unknown fusion {name!r}; expected one of {', '.join(FUSIONS)}") from None


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_kernels(kernels) -> tuple[int, ...]:
    """Validate a kernel-width list: non-empty, integers, odd, positive and
    strictly increasing. Returns it as a tuple of ints."""
    kernels = tuple(kernels)
    if not kernels:
        raise ConfigError("at least one kernel width is required")
    for k in kernels:
        if not _is_int(k):
            raise ConfigError(f"kernel widths must be integers, got {k!r}")
        if k < 1 or k % 2 == 0:
            raise ConfigError(f"kernel widths must be odd and positive, got {k}")
    kernels = tuple(int(k) for k in kernels)
    if any(b <= a for a, b in zip(kernels, kernels[1:])):
        raise ConfigError(f"kernel widths must be strictly increasing, got {kernels}")
    return kernels


def check_gate_width(d_inter: int, fusion: FusionKind, n_kernels: int) -> None:
    """Validate the gating-unit width: ``d_inter`` is even, and for
    ``concat``/``depth`` the kernel count divides its half ``d_inter/2``."""
    if d_inter % 2:
        raise ConfigError(f"d_inter must be even, got {d_inter}")
    if fusion in (FusionKind.CONCAT, FusionKind.DEPTH) and (d_inter // 2) % n_kernels:
        raise ConfigError(
            f"{fusion.value} fusion needs the kernel count {n_kernels} "
            f"to divide the half width {d_inter // 2}")


def _check_fields(cfg) -> None:
    """Reject NaN or an infinity in any float field of ``cfg`` (NaN passes
    every ordered range check of ``validate``), a negative seed, and fewer
    mel bins than the subsampler's two conv stages need."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "float" and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if f.name == "seed" and value < 0:
            raise ConfigError(f"seed must be non-negative, got {value}")
        if f.name == "n_mels" and value < SUBSAMPLER_FLOOR:
            raise ConfigError(f"n_mels must be at least {SUBSAMPLER_FLOOR} for the two conv stages")


def _typed(name: str, annotation: str, value, path):
    """``value`` as the field's annotated type, or a ConfigError."""
    if annotation == "tuple[int, ...]" and isinstance(value, list) \
            and all(_is_int(v) for v in value):
        return tuple(value)
    if annotation == "int" and _is_int(value):
        return value
    if annotation == "float" and (_is_int(value) or isinstance(value, float)):
        return float(value)
    if annotation == "str" and isinstance(value, str):
        return value
    raise ConfigError(f"{path}: {name} must be {annotation}, got {value!r}")


def _load_into(cls, raw: dict, path):
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object for {cls.__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)} for {cls.__name__}")
    missing = set(fields) - set(raw)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)} for {cls.__name__}")
    return cls(**{name: _typed(name, fields[name].type, value, path)
                  for name, value in raw.items()})


class _JsonMixin:
    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key, value in out.items():
            if isinstance(value, tuple):
                out[key] = list(value)
        return out

    def save(self, path) -> None:
        with replacing(path) as fh:
            fh.write((json.dumps(self.to_dict(), indent=2) + "\n").encode())

    @classmethod
    def load(cls, path):
        try:
            raw = json.loads(Path(path).read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: not a JSON config ({exc})") from None
        cfg = _load_into(cls, raw, path)
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class EncoderConfig(_JsonMixin):
    """Shape of the speech encoder.

    ``d_inter`` (gating-unit expansion width) and ``d_ffn`` (feed-forward
    hidden width) of 0 mean "use the defaults" of 6x and 4x the model dim.
    ``kernels`` lists the branch kernel widths for the multi-kernel block;
    the single-kernel baselines use the widest entry.
    """

    dim: int = 256
    layers: int = 12
    heads: int = 4
    d_inter: int = 0
    d_ffn: int = 0
    conv_block: str = "multiconv"
    fusion: str = "depth"
    kernels: tuple[int, ...] = (7, 15, 23, 31)
    n_mels: int = 80
    vocab: int = 8
    dropout: float = 0.1
    seed: int = 0

    @property
    def inter_width(self) -> int:
        return self.d_inter if self.d_inter else 6 * self.dim

    @property
    def ffn_width(self) -> int:
        return self.d_ffn if self.d_ffn else 4 * self.dim

    def validate(self) -> "EncoderConfig":
        _check_fields(self)
        if self.dim < 1 or self.layers < 1 or self.heads < 1:
            raise ConfigError("dim, layers, and heads must be positive")
        if self.dim % self.heads:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.conv_block not in CONV_BLOCKS:
            raise ConfigError(f"conv_block must be one of {CONV_BLOCKS}, got {self.conv_block!r}")
        fusion = parse_fusion(self.fusion)
        check_kernels(self.kernels)
        if self.d_inter < 0 or self.d_ffn < 0:
            raise ConfigError("d_inter and d_ffn must be non-negative (0 means the default)")
        # the baselines have no fusion, so only the parity rule applies to them
        check_gate_width(self.inter_width,
                         fusion if self.conv_block == "multiconv" else FusionKind.SUM,
                         len(self.kernels))
        if self.vocab < 1:
            raise ConfigError("vocab must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        return self


@dataclass(frozen=True)
class DataSpec(_JsonMixin):
    """Recipe for the synthetic token-to-frames dataset."""

    vocab: int = 8
    n_train: int = 2000
    n_dev: int = 200
    n_test: int = 200
    min_tokens: int = 3
    max_tokens: int = 10
    frames_per_token: int = 12
    n_mels: int = 80
    noise_std: float = 0.3
    seed: int = 0

    def validate(self) -> "DataSpec":
        _check_fields(self)
        if self.vocab < 1:
            raise ConfigError("vocab must be positive")
        if self.n_train < 1 or self.n_dev < 1 or self.n_test < 1:
            raise ConfigError("split sizes must be positive")
        if not 1 <= self.min_tokens <= self.max_tokens:
            raise ConfigError("need 1 <= min_tokens <= max_tokens")
        if self.frames_per_token < 1:
            raise ConfigError("frames_per_token must be positive")
        if self.min_tokens * self.frames_per_token < SUBSAMPLER_FLOOR:
            raise ConfigError(f"shortest utterance must reach the {SUBSAMPLER_FLOOR}-frame "
                              "subsampler floor")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be non-negative")
        return self


@dataclass(frozen=True)
class TrainConfig(_JsonMixin):
    """Optimization settings for CTC training."""

    seed: int = 0
    steps: int = 2000
    batch_size: int = 16
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-9
    clip_norm: float = 5.0
    eval_every: int = 50
    target_ter: float = -1.0

    def validate(self) -> "TrainConfig":
        _check_fields(self)
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("steps and batch_size must be positive")
        # lr of exactly zero is legal: it freezes the parameters, which is
        # useful for harness checks
        if self.lr < 0 or self.eps <= 0:
            raise ConfigError("lr must be non-negative and eps positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("betas must be in [0, 1)")
        if self.clip_norm <= 0:
            raise ConfigError("clip_norm must be positive")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be positive")
        return self

    @property
    def early_stop_ter(self) -> float | None:
        return self.target_ter if self.target_ter >= 0 else None
