"""The finite-difference audit covers every parameter of the modules it
audits, and its case list is pinned."""

import hashlib

import numpy as np

from multiconv.attention import MultiHeadAttention
from multiconv.config import EncoderConfig, FusionKind
from multiconv.conv_blocks import ConformerConvBlock, Mcsgu, MultiConvBlock
from multiconv.encoder import CtcModel
from multiconv.gradcheck import build_cases
from multiconv.layers import (
    Conv2dDown,
    DepthwiseConv1d,
    GroupedConv1d,
    LayerNorm,
    Linear,
    Subsampler,
)

# case-name prefix, and a module of the same shape as the one the audit runs
AUDITED = [
    ("layer_norm", lambda rng: LayerNorm(6)),
    ("linear", lambda rng: Linear(5, 3, rng)),
    *[(f"depthwise_k{k}", lambda rng, k=k: DepthwiseConv1d(4, k, rng)) for k in (1, 3, 7)],
    ("grouped_a", lambda rng: GroupedConv1d(8, 8, 3, 4, rng)),
    ("grouped_b", lambda rng: GroupedConv1d(8, 4, 5, 4, rng)),
    ("grouped_c", lambda rng: GroupedConv1d(6, 6, 3, 2, rng)),
    ("conv2d", lambda rng: Conv2dDown(2, 3, rng)),
    ("conv2d_one_frame", lambda rng: Conv2dDown(2, 3, rng)),
    ("conv2d_one_channel", lambda rng: Conv2dDown(2, 1, rng)),
    ("subsampler", lambda rng: Subsampler(9, 6, rng)),
    *[(f"mcsgu_{kind.value}", lambda rng, kind=kind: Mcsgu(12, (3, 5), kind, rng))
      for kind in FusionKind],
    ("multiconv_block", lambda rng: MultiConvBlock(6, 8, (3,), FusionKind.SUM, rng)),
    ("conformer_block", lambda rng: ConformerConvBlock(6, 5, rng)),
    ("attention", lambda rng: MultiHeadAttention(6, 2, rng)),
    ("ctc_model", lambda rng: CtcModel(EncoderConfig(
        dim=6, layers=1, heads=2, d_inter=8, d_ffn=10, conv_block="multiconv",
        fusion="depth", kernels=(3, 5), n_mels=9, vocab=3), rng)),
]


def test_every_parameter_of_each_audited_module_has_a_case():
    cases = build_cases(0)
    # op-level cases run once per seed and carry a "[s<seed>]" tag
    names = {case.name.split("[")[0] for case in cases}
    rng = np.random.default_rng(0)
    expected = [f"{prefix}.{path}" for prefix, make in AUDITED
                for path, _ in make(rng).named_parameters()]
    assert len(expected) > 60
    assert [name for name in expected if name not in names] == []
    assert len(cases) >= 134


def test_case_list_is_pinned():
    # names, order and starting points of every case; the reducer draws its
    # projections from the builder's generator in case order as the cases
    # run, so a renamed, dropped or reordered case moves the lines after it
    digest = hashlib.sha256()
    cases = build_cases(0)
    for case in cases:
        digest.update(f"{case.name}\0{case.x0.size}\0".encode())
        digest.update(case.x0.tobytes())
    assert len(cases) == 222
    assert digest.hexdigest() == (
        "5f78c5c72b85debdea5365ba4f2a932e64372f7ebc3a694dacdabecbfe907c81")
