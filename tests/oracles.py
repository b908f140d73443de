"""Independent reference implementations used to pin expected test values.

Everything here is written the slow, obvious way (explicit loops, full path
enumeration, recursion) precisely so it shares no code or structure with the
package under test. The exceptions are the earlier forms of layers the
package has since fused or trimmed (:func:`conv2d_down_reference`,
:func:`attention_reference`, :func:`residual_reference`,
:func:`glu_reference`, :func:`mcsgu_reference` with :func:`fold_taps`,
:func:`branch_major` and :func:`mix_rows`, :func:`layer_norm_by_mean`), kept
to show the new form gives the same bits.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from multiconv.autodiff import Tape, Tensor, add, backward, mul, record, reshape, scale, tsum
from multiconv.config import FusionKind
from multiconv.layers import (_expit, depthwise_conv, dropout, grouped_conv, observe, observing,
                              softmax)


def depthwise_conv_loops(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """Per-channel temporal convolution, zero padded, via explicit loops.
    Complex inputs stay complex (see :func:`complex_step_grad`)."""
    t_len, channels = x.shape
    k = w.shape[1]
    half = k // 2
    dtype = np.result_type(x, w, np.float64, *(() if b is None else (b,)))
    out = np.zeros((t_len, channels), dtype=dtype)
    for t in range(t_len):
        for c in range(channels):
            acc = 0.0
            for j in range(k):
                src = t + j - half
                if 0 <= src < t_len:
                    acc += x[src, c] * w[c, j]
            if b is not None:
                acc += b[c]
            out[t, c] = acc
    return out


def layer_norm_rows(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                    eps: float = 1e-12) -> np.ndarray:
    """Normalize each row to zero mean and unit variance, then scale and shift."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def layer_norm_by_mean(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                       lo: int = 0) -> np.ndarray:
    """``layers.layer_norm``'s earlier forward: channels [lo:] normalized
    with means taken by ``.mean``, in the package's order of operations."""
    xs = x[..., lo:]
    centered = xs - xs.mean(axis=-1, keepdims=True)
    var = np.square(centered).mean(axis=-1, keepdims=True)
    return centered * (1.0 / np.sqrt(var + 1e-12)) * gamma + beta


def csgu_loops(a: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Single-kernel convolutional spatial gating unit [T, 2h] -> [T, h]: the
    left half of ``a`` times the depthwise convolution (weight w [h, k],
    bias b) of the layer-normed right half."""
    half = a.shape[1] // 2
    return a[:, :half] * depthwise_conv_loops(
        layer_norm_rows(a[:, half:], gamma, beta), w, b)


def complex_step_grad(fn, x0: np.ndarray, step: float = 1e-30) -> np.ndarray:
    """Gradient of a real-analytic scalar function, element by element, as
    Im fn(x0 + i*step*e_j) / step. Nothing is subtracted, so the result is
    exact to rounding, unlike a finite difference."""
    grad = np.zeros(x0.shape, dtype=np.float64)
    for j in range(x0.size):
        x = x0.astype(np.complex128)
        x.flat[j] += 1j * step
        grad.flat[j] = np.imag(fn(x)) / step
    return grad


def grouped_conv_loops(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                       groups: int) -> np.ndarray:
    """Grouped temporal convolution with contiguous channel blocks."""
    t_len, cin = x.shape
    _, opg, ipg, k = w.shape
    half = k // 2
    cout = groups * opg
    out = np.zeros((t_len, cout), dtype=np.float64)
    for t in range(t_len):
        for g in range(groups):
            for o in range(opg):
                acc = 0.0
                for i in range(ipg):
                    for j in range(k):
                        src = t + j - half
                        if 0 <= src < t_len:
                            acc += x[src, g * ipg + i] * w[g, o, i, j]
                col = g * opg + o
                if b is not None:
                    acc += b[col]
                out[t, col] = acc
    return out


def grouped_conv_grads_loops(x: np.ndarray, w: np.ndarray, g: np.ndarray,
                             groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (dx, dw) of sum(g * grouped_conv_loops(x, w, None, groups)),
    by scattering each output gradient back along the taps that produced it."""
    t_len, _ = x.shape
    _, opg, ipg, k = w.shape
    half = k // 2
    dx = np.zeros(x.shape, dtype=np.float64)
    dw = np.zeros(w.shape, dtype=np.float64)
    for t in range(t_len):
        for grp in range(groups):
            for o in range(opg):
                go = g[t, grp * opg + o]
                for i in range(ipg):
                    for j in range(k):
                        src = t + j - half
                        if 0 <= src < t_len:
                            dx[src, grp * ipg + i] += go * w[grp, o, i, j]
                            dw[grp, o, i, j] += go * x[src, grp * ipg + i]
    return dx, dw


def conv2d_stride2_loops(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 stride-2 valid convolution; w is [cin*3*3, cout] with the patch
    flattened as (channel, row, col) to match the package layout."""
    t_in, f_in, cin = x.shape
    cout = w.shape[1]
    t_out = (t_in - 3) // 2 + 1
    f_out = (f_in - 3) // 2 + 1
    w4 = w.reshape(cin, 3, 3, cout)
    out = np.zeros((t_out, f_out, cout), dtype=np.float64)
    for ti in range(t_out):
        for fi in range(f_out):
            for co in range(cout):
                acc = b[co]
                for c in range(cin):
                    for di in range(3):
                        for dj in range(3):
                            acc += x[2 * ti + di, 2 * fi + dj, c] * w4[c, di, dj, co]
                out[ti, fi, co] = acc
    return out


def conv2d_down_reference(x: np.ndarray, w: np.ndarray, b: np.ndarray, g: np.ndarray):
    """``Conv2dDown``'s forward and backward with the patches gathered in the
    stored weight's own [C, k, k] order (the package's earlier layout):
    returns ``(y, dx, dw, db)`` for the upstream gradient ``g`` [t, f, O].
    The same patch-gather and matmuls, so float32 results compare bit for
    bit wherever the sum order is the same."""
    k, s = 3, 2
    t_out, f_out = (x.shape[0] - 1) // 2, (x.shape[1] - 1) // 2
    cin, cout = x.shape[2], w.shape[1]
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(0, 1))
    patches = np.ascontiguousarray(win[::s, ::s]).reshape(t_out * f_out, -1)
    y = (patches @ w + b).reshape(t_out, f_out, cout)
    g2 = g.reshape(t_out * f_out, cout)
    gp = (g2 @ w.T).reshape(t_out, f_out, cin, k, k)
    dx = np.zeros_like(x)
    for di in range(k):
        for dj in range(k):
            dx[di:di + s * t_out:s, dj:dj + s * f_out:s] += gp[:, :, :, di, dj]
    return y, dx, patches.T @ g2, g2.sum(axis=0)


def _swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    """The package's earlier ``swapaxes`` tape op: a contiguous copy of ``x``
    with axes ``a`` and ``b`` swapped."""
    out = Tensor(np.ascontiguousarray(np.swapaxes(x.data, a, b)))
    return record(out, (x,), lambda g: (np.swapaxes(g, a, b),))


def _batched_matmul(a: Tensor, b: Tensor) -> Tensor:
    """The package's earlier batched ``matmul``: matrix products over equal
    leading extents."""
    return record(Tensor(a.data @ b.data), (a, b),
                  lambda g: (g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g))


def attention_reference(att, x: Tensor) -> Tensor:
    """``MultiHeadAttention`` as the package computed it from generic tape
    ops, 18 nodes a call: each projection split into contiguous [H, T, d]
    heads, ``softmax((q kᵀ)·c)``, observed, then dropout, ``· v`` and the
    heads merged before the output projection."""
    t = x.shape[0]

    def split(p):
        return _swapaxes(reshape(p, (t, att.heads, att.head_dim)), 0, 1)

    q = split(att.q_proj(x))
    k = split(att.k_proj(x))
    v = split(att.v_proj(x))
    scores = scale(_batched_matmul(q, _swapaxes(k, 1, 2)), 1.0 / math.sqrt(att.head_dim))
    weights = softmax(scores)
    observe(att, weights.data)
    weights = dropout(weights, att.dropout_p)
    ctx = _batched_matmul(weights, v)
    return att.out_proj(reshape(_swapaxes(ctx, 0, 1), (t, att.dim)))


def attention_pass(att, call, x0, proj, mode):
    """Output, observed map, x's gradient, the parameters' gradients and the
    tape's node count of one call, untaped or taped (with or without a
    dropout generator) and then run backward through a fixed projection."""
    att.zero_grad()
    x = Tensor(x0, requires_grad=True)
    nodes = None
    with observing() as seen:
        if mode == "no tape":
            out = call(x)
        else:
            rng = np.random.default_rng(11) if mode == "tape with generator" else None
            with Tape(rng) as tape:
                out = call(x)
                nodes = len(tape)
                backward(tsum(mul(out, proj)))
    return out.data, seen[att][0], x.grad, [p.grad for p in att.parameters()], nodes


def dropout_mask_loops(rng: np.random.Generator, shape: tuple, dtype, p: float) -> np.ndarray:
    """An inverted-dropout mask drawn one uniform at a time in C order: 1 / (1 - p),
    computed in ``dtype``, where the draw is below 1 - p, else 0."""
    keep = 1.0 - p
    scaled = np.divide(np.ones((), dtype=dtype), np.asarray(keep, dtype=dtype))
    mask = np.zeros(shape, dtype=dtype)
    for index in np.ndindex(*shape):
        if rng.random() < keep:
            mask[index] = scaled
    return mask


def residual_reference(x: Tensor, h: Tensor, c: float, p: float) -> Tensor:
    """The residual sum as the package wrote it from generic tape ops, up to
    three nodes: ``add(x, scale(dropout(h, p), c))``, without the scale
    when c is 1."""
    h = dropout(h, p)
    return add(x, h if c == 1.0 else scale(h, c))


def _sigmoid(x: Tensor) -> Tensor:
    """The package's earlier ``sigmoid`` tape op."""
    s = _expit(x.data)
    return record(Tensor(s), (x,), lambda g: (g * s * (1.0 - s),))


def slice_channels(x: Tensor, lo: int, hi: int) -> Tensor:
    """The package's earlier ``slice_channels`` tape op: a copy of channels
    [lo, hi) of the last axis; backward scatters into place."""
    c = x.shape[-1]
    if not (0 <= lo < hi <= c):
        raise IndexError(f"slice_channels: range [{lo}, {hi}) invalid for {c} channels")
    out = Tensor(x.data[..., lo:hi].copy())

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[..., lo:hi] = g
        return (gx,)

    return record(out, (x,), bwd)


def split_channels(x: Tensor, boundary: int) -> tuple[Tensor, Tensor]:
    """The package's earlier ``split_channels``: the last axis split at
    ``boundary`` into two copied channel ranges, two nodes."""
    c = x.shape[-1]
    if not (0 < boundary < c):
        raise IndexError(f"split_channels: boundary {boundary} out of range for {c} channels")
    return slice_channels(x, 0, boundary), slice_channels(x, boundary, c)


def fold_taps(kernels: list[Tensor], width: int, stack: bool) -> Tensor:
    """The package's earlier kernel fold, one tape node: each kernel centred
    in ``width`` zero taps along its last axis, then summed ([C, k_i] ->
    [C, width]) or, with ``stack``, concatenated along axis 1 ([G, O_i, I,
    k_i] -> [G, sum O_i, I, width]). Backward crops each kernel's taps out
    of the merged kernel's gradient."""
    first = kernels[0].data
    if stack:
        rows = sum(w.shape[1] for w in kernels)
        merged = np.zeros((first.shape[0], rows, *first.shape[2:-1], width), dtype=first.dtype)
    else:
        merged = np.zeros((*first.shape[:-1], width), dtype=first.dtype)
    spots = []
    row = 0
    for w in kernels:
        k = w.shape[-1]
        taps = slice((width - k) // 2, (width + k) // 2)
        if stack:
            spot = (slice(None), slice(row, row + w.shape[1]), Ellipsis, taps)
            row += w.shape[1]
        else:
            spot = (Ellipsis, taps)
        merged[spot] += w.data
        spots.append(spot)

    def bwd(g):
        return [g[spot].copy() for spot in spots]

    return record(Tensor(merged), tuple(kernels), bwd)


def branch_major(y: Tensor, biases: list[Tensor]) -> Tensor:
    """The package's earlier reorder node: a folded grouped conv's output
    [T, G*P] (group-major: channel g*P + i is branch i, group g) put in
    the branch-major order of concatenated branch outputs (channel i*G + g),
    adding branch i's bias [G] to its block."""
    t = y.shape[0]
    p = len(biases)
    groups = y.shape[1] // p
    bias = np.concatenate([b.data for b in biases])
    out = y.data.reshape(t, groups, p).transpose(0, 2, 1).reshape(t, p * groups) + bias

    def bwd(g):
        gy = g.reshape(t, p, groups).transpose(0, 2, 1).reshape(t, groups * p)
        gb = g.sum(axis=0)
        return (gy, *(gb[i * groups:(i + 1) * groups] for i in range(p)))

    return record(Tensor(out), (y, *biases), bwd)


def mix_rows(parts: list[Tensor], alpha: Tensor) -> Tensor:
    """The package's earlier ``weighted`` mixing node: the per-frame mixture
    sum_i alpha[t, i] * parts[i][t, :] of P [T, C] tensors by alpha[T, P]."""
    a = alpha.data
    acc = parts[0].data * a[:, 0:1]
    for i, v in enumerate(parts[1:], start=1):
        acc += v.data * a[:, i:i + 1]

    def bwd(g):
        grads = [g * a[:, i:i + 1] for i in range(len(parts))]
        d_alpha = np.stack([(g * v.data).sum(axis=1) for v in parts], axis=1)
        return (*grads, d_alpha)

    return record(Tensor(acc), (*parts, alpha), bwd)


def depthwise_composite(x: Tensor, weights: list[Tensor], biases: list[Tensor]) -> Tensor:
    """The ``sum`` fold as the package wrote it, three nodes: a
    :func:`fold_taps` node, an ``add`` node for the biases and a
    one-kernel ``depthwise_conv``."""
    width = max(w.shape[-1] for w in weights)
    return depthwise_conv(x, [fold_taps(weights, width, stack=False)], [add(*biases)])


def grouped_composite(x: Tensor, weights: list[Tensor], biases: list[Tensor]) -> Tensor:
    """The ``concat`` fold of one-output-per-group kernels as the package
    wrote it, three nodes: a stacking :func:`fold_taps` node, a one-kernel
    ``grouped_conv`` and a :func:`branch_major` node that adds the biases.
    (The conv's own bias is zero: the earlier op had none.)"""
    width = max(w.shape[-1] for w in weights)
    merged = fold_taps(weights, width, stack=True)
    zero = Tensor(np.zeros(merged.shape[0] * merged.shape[1], dtype=merged.dtype))
    return branch_major(grouped_conv(x, [merged], [zero]), biases)


def mcsgu_reference(unit, a: Tensor) -> Tensor:
    """``Mcsgu.__call__`` as the package computed it from generic tape ops:
    the halves copied out by :func:`split_channels`, the right one normed by
    ``unit.norm``, the ``sum`` and ``concat`` folds as
    :func:`depthwise_composite` and :func:`grouped_composite`, ``weighted``
    as one conv node per branch and a :func:`mix_rows` node, and the gate a
    ``mul`` node. The weighted mixture is observed as before."""
    z_l, z_r = split_channels(a, unit.half)
    z_r = unit.norm(z_r)
    weights = [conv.weight for conv in unit.branches]
    biases = [conv.bias for conv in unit.branches]
    if unit.fusion is FusionKind.SUM:
        fused = depthwise_composite(z_r, weights, biases)
    elif unit.fusion is FusionKind.WEIGHTED:
        alpha = softmax(unit.gate(z_r))
        observe(unit, alpha.data)
        fused = mix_rows([conv(z_r) for conv in unit.branches], alpha)
    else:
        fused = grouped_composite(z_r, weights, biases)
        if unit.final_conv is not None:
            fused = unit.final_conv(fused)
    return mul(z_l, fused)


def fold_taps_loops(kernels: list[np.ndarray], width: int, stack: bool) -> np.ndarray:
    """``fold_taps``'s merged kernel by explicit loops: each kernel's taps
    centred in ``width`` zero taps, summed in branch order ([C, k_i] ->
    [C, width]) or, with ``stack``, each kernel's rows placed after the
    previous kernel's along axis 1 ([G, O_i, I, k_i] -> [G, sum O_i, I, width])."""
    shape = [*kernels[0].shape[:-1], width]
    if stack:
        shape[1] = sum(w.shape[1] for w in kernels)
    merged = np.zeros(shape, dtype=kernels[0].dtype)
    row = 0
    for w in kernels:
        k = w.shape[-1]
        off = (width - k) // 2
        for idx in np.ndindex(*w.shape):
            dst = list(idx)
            dst[-1] += off
            if stack:
                dst[1] += row
            merged[tuple(dst)] += w[idx]
        row += w.shape[1]
    return merged


def fold_taps_grads_loops(kernels: list[np.ndarray], width: int, stack: bool,
                          g: np.ndarray) -> list[np.ndarray]:
    """Each kernel's gradient from the merged kernel's gradient ``g``: the
    taps and (with ``stack``) rows it was placed at, read back one by one."""
    grads = []
    row = 0
    for w in kernels:
        off = (width - w.shape[-1]) // 2
        gw = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            src = list(idx)
            src[-1] += off
            if stack:
                src[1] += row
            gw[idx] = g[tuple(src)]
        grads.append(gw)
        row += w.shape[1]
    return grads


def branch_major_loops(y: np.ndarray, biases: list[np.ndarray]) -> np.ndarray:
    """``branch_major`` by explicit loops: out[t, i*G + g] = y[t, g*P + i] +
    biases[i][g] for P branches of G groups."""
    t_len = y.shape[0]
    p = len(biases)
    groups = y.shape[1] // p
    out = np.empty_like(y)
    for t in range(t_len):
        for i in range(p):
            for grp in range(groups):
                out[t, i * groups + grp] = y[t, grp * p + i] + biases[i][grp]
    return out


def branch_major_grads_loops(g: np.ndarray, p: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """``branch_major``'s gradients from the output gradient ``g``: y's is g
    put back in group-major order, bias i's is g's block i summed over frames,
    frame by frame."""
    t_len = g.shape[0]
    groups = g.shape[1] // p
    gy = np.empty_like(g)
    gb = [np.zeros(groups, dtype=g.dtype) for _ in range(p)]
    for t in range(t_len):
        for i in range(p):
            for grp in range(groups):
                gy[t, grp * p + i] = g[t, i * groups + grp]
                gb[i][grp] += g[t, i * groups + grp]
    return gy, gb


def mix_rows_loops(parts: list[np.ndarray], alpha: np.ndarray) -> np.ndarray:
    """``mix_rows`` in float64 by explicit loops: out[t, c] = sum_i
    alpha[t, i] * parts[i][t, c]."""
    t_len, channels = parts[0].shape
    out = np.zeros((t_len, channels))
    for t in range(t_len):
        for c in range(channels):
            for i, v in enumerate(parts):
                out[t, c] += float(alpha[t, i]) * float(v[t, c])
    return out


def mix_rows_grads_loops(parts: list[np.ndarray], alpha: np.ndarray,
                         g: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """``mix_rows``'s gradients in float64 by explicit loops: part i's is
    g * alpha[:, i] per frame, alpha[t, i]'s is sum_c g[t, c] * parts[i][t, c]."""
    t_len, channels = g.shape
    d_parts = [np.zeros((t_len, channels)) for _ in parts]
    d_alpha = np.zeros(alpha.shape)
    for t in range(t_len):
        for i, v in enumerate(parts):
            for c in range(channels):
                d_parts[i][t, c] = float(g[t, c]) * float(alpha[t, i])
                d_alpha[t, i] += float(g[t, c]) * float(v[t, c])
    return d_parts, d_alpha


def glu_reference(x: Tensor) -> Tensor:
    """``glu`` as the package computed it from generic tape ops, four nodes:
    the two channel halves a and b copied out, then a * sigmoid(b)."""
    a, b = split_channels(x, x.shape[-1] // 2)
    return mul(a, _sigmoid(b))


TAPE_MODES = ["no tape", "tape", "tape with generator"]


def taped(call, inputs, proj, mode):
    """Output, input gradients and the tape's node count of one call on
    fresh leaves, untaped or taped (with or without a dropout generator)
    and then run backward through a fixed projection."""
    leaves = [Tensor(a, requires_grad=True) for a in inputs]
    if mode == "no tape":
        return call(*leaves).data, None, None
    with Tape(np.random.default_rng(11) if mode == "tape with generator" else None) as tape:
        out = call(*leaves)
        nodes = len(tape)
        backward(tsum(mul(out, Tensor(proj))))
    return out.data, [t.grad for t in leaves], nodes


def collapse_path(path: tuple[int, ...]) -> tuple[int, ...]:
    """CTC path collapse: merge repeats, then drop blanks (class 0)."""
    out = []
    prev = None
    for cls in path:
        if cls != prev and cls != 0:
            out.append(cls)
        prev = cls
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _paths_by_output(n_frames: int, n_classes: int):
    """Map collapsed output -> array of frame-index paths producing it."""
    grouped: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for path in itertools.product(range(n_classes), repeat=n_frames):
        grouped.setdefault(collapse_path(path), []).append(path)
    return {key: np.array(paths, dtype=np.int64) for key, paths in grouped.items()}


def ctc_loss_brute_force(log_probs: np.ndarray, labels: list[int]) -> float:
    """Negative log-likelihood by summing every path that collapses to
    ``labels``. Returns +inf when no path does."""
    n_frames, n_classes = log_probs.shape
    paths = _paths_by_output(n_frames, n_classes).get(tuple(labels))
    if paths is None:
        return math.inf
    frame_idx = np.arange(n_frames)
    path_scores = log_probs[frame_idx, paths].sum(axis=1)
    peak = path_scores.max()
    return -(peak + math.log(np.exp(path_scores - peak).sum()))


def ctc_grad_brute_force(logits: np.ndarray, labels: list[int]) -> np.ndarray | None:
    """Gradient of the CTC loss w.r.t. the logits by path enumeration: the
    softmax minus the one-hot of every path that collapses to ``labels``,
    each weighted by its posterior among those paths. None when no path
    does."""
    n_frames, n_classes = logits.shape
    paths = _paths_by_output(n_frames, n_classes).get(tuple(labels))
    if paths is None:
        return None
    probs = softmax_rows(logits)
    log_probs = np.log(probs)
    posteriors = []
    for path in paths:
        posteriors.append(math.exp(sum(log_probs[t, cls] for t, cls in enumerate(path))))
    total = sum(posteriors)
    occupancy = np.zeros((n_frames, n_classes))
    for path, weight in zip(paths, posteriors):
        for t, cls in enumerate(path):
            occupancy[t, cls] += weight / total
    return probs - occupancy


def ctc_forward_vars_reference(lp_ext: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """CTC forward variables over the chain ``ext`` with emission log-probs
    lp_ext[T, S], the chain's edge and the skip rule written as control flow:
    each frame shifts the previous row by one and two states with
    ``concatenate`` and takes the skip only where a boolean rule allows it
    (state s is a label that differs from the one at s-2)."""
    neg_inf = float("-inf")
    n_frames, n_states = lp_ext.shape
    skip_in = np.zeros(n_states, dtype=bool)
    skip_in[2:] = (ext[2:] != 0) & (ext[2:] != ext[:-2])
    alpha = np.full((n_frames, n_states), neg_inf)
    alpha[0, :2] = lp_ext[0, :2]
    for t in range(1, n_frames):
        prev = alpha[t - 1]
        step = np.concatenate(([neg_inf], prev[:-1]))
        merged = np.logaddexp(prev, step)
        if n_states > 2:
            skip = np.concatenate(([neg_inf, neg_inf], prev[:-2]))
            merged = np.where(skip_in, np.logaddexp(merged, skip), merged)
        alpha[t] = merged + lp_ext[t]
    return alpha


def edit_distance_recursive(a, b) -> int:
    """Levenshtein distance by memoized recursion."""

    @functools.lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            go(i - 1, j) + 1,
            go(i, j - 1) + 1,
            go(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return go(len(a), len(b))


def softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)
