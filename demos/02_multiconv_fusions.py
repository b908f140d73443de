"""The multi-kernel gated convolution unit and its four fusion rules.

The unit splits its input channels in half, normalizes one half, runs it
through several depthwise convolutions of different widths in parallel,
fuses the branch outputs, and multiplies the result against the untouched
half. The fusion rule is the interesting part:

  sum       add the branches
  weighted  per-frame softmax mixture of the branches
  concat    each branch owns a slice of the output channels
  depth     concat followed by one wide depthwise convolution

This script runs all four on the same input and then demonstrates two
identities the tests pin down exactly: a single-kernel unit collapses to
the plain gating unit, and a zero-initialized weighted gate is just the
sum fusion scaled by 1/P.

Run it with:  python3 demos/02_multiconv_fusions.py
"""

import numpy as np

from multiconv import FusionKind, Mcsgu, Tensor, fusion_param_count

D_INTER = 48           # expanded width entering the unit; the gate halves it
KERNELS = (3, 7, 11)   # three branch widths, P = 3

rng = np.random.default_rng(7)
frames = Tensor(rng.normal(size=(12, D_INTER)))

# 1. same input, four fusion rules
print(f"input [T, d_inter] = {frames.shape}, kernels {KERNELS}")
for fusion in FusionKind:
    unit = Mcsgu(D_INTER, KERNELS, fusion, np.random.default_rng(1))
    out = unit(frames)
    n_params = sum(p.data.size for _, p in unit.named_parameters())
    formula = fusion_param_count(fusion, D_INTER, KERNELS)
    print(f"  {fusion.value:<9s} out {out.shape}   unit params {n_params:>5,} "
          f"(fusion part {formula:,})")

# 2. P=1 with sum fusion is exactly the single-kernel gating unit: the left
# half times a width-7 depthwise convolution of the layer-normed right half
multi = Mcsgu(D_INTER, (7,), FusionKind.SUM, np.random.default_rng(2))
x = Tensor(rng.normal(size=(10, D_INTER)))
left, right = x.data[:, :D_INTER // 2], x.data[:, D_INTER // 2:]
centred = right - right.mean(axis=1, keepdims=True)
normed = centred / np.sqrt((centred ** 2).mean(axis=1, keepdims=True) + 1e-12)
padded = np.pad(normed, ((3, 3), (0, 0)))
w, b = multi.branches[0].weight.data, multi.branches[0].bias.data
conv = sum(padded[j:j + len(normed)] * w[:, j] for j in range(7)) + b
gap = np.abs(multi(x).data - left * conv).max()
print(f"single-kernel reduction: max |unit - formula| = {gap:.2e}")
assert gap < 1e-12

# 3. the weighted gate projection starts at zero, so before any training the
# softmax is uniform and the mixture equals the sum fusion divided by P
weighted = Mcsgu(D_INTER, KERNELS, FusionKind.WEIGHTED, np.random.default_rng(4))
summed = Mcsgu(D_INTER, KERNELS, FusionKind.SUM, np.random.default_rng(4))
gap = np.abs(weighted(x).data - summed(x).data / len(KERNELS)).max()
print(f"zero-init weighted vs sum/P:  max diff = {gap:.2e}")
assert gap < 1e-12
