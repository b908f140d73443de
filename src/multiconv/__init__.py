"""Multi-kernel gated convolution speech encoder with CTC training.

The package is a self-contained numpy stack: a small reverse-mode autodiff
tape, the neural building blocks on top of it, the multi-kernel gated
convolution encoder with four kernel-fusion rules, CTC loss and decoding,
a training harness, and analysis tools for attention alignment, kernel
importance, and parameter accounting.
"""

from .analysis import (
    attention_diagonality,
    diagonality_by_layer_head,
    fusion_comparison,
    kernel_importance,
    param_breakdown,
)
from .attention import MultiHeadAttention
from .autodiff import Tape, Tensor, backward
from .checkpoint import load_arrays, load_model, save_arrays, save_model
from .config import DataSpec, EncoderConfig, TrainConfig
from .conv_blocks import (
    ConformerConvBlock,
    CsguBlock,
    FusionKind,
    Mcsgu,
    MultiConvBlock,
    fusion_param_count,
)
from .ctc import ctc_feasible, ctc_loss, edit_distance, greedy_decode, token_error_rate
from .data import Utterance, generate_dataset, load_spec, load_split
from .encoder import CtcModel, Encoder, EncoderLayer, build_model
from .errors import (
    ConfigError,
    ContractError,
    IntegrityError,
    ShapeError,
    StateError,
)
from .gradcheck import run_suite
from .training import Adam, EvalResult, TrainResult, clip_gradients, evaluate, train_model

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "ConfigError",
    "ConformerConvBlock",
    "ContractError",
    "CsguBlock",
    "CtcModel",
    "DataSpec",
    "Encoder",
    "EncoderConfig",
    "EncoderLayer",
    "EvalResult",
    "FusionKind",
    "IntegrityError",
    "Mcsgu",
    "MultiConvBlock",
    "MultiHeadAttention",
    "ShapeError",
    "StateError",
    "Tape",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "Utterance",
    "attention_diagonality",
    "backward",
    "build_model",
    "clip_gradients",
    "ctc_feasible",
    "ctc_loss",
    "diagonality_by_layer_head",
    "edit_distance",
    "evaluate",
    "fusion_comparison",
    "fusion_param_count",
    "generate_dataset",
    "greedy_decode",
    "kernel_importance",
    "load_arrays",
    "load_model",
    "load_spec",
    "load_split",
    "param_breakdown",
    "run_suite",
    "save_arrays",
    "save_model",
    "token_error_rate",
    "train_model",
]
