"""Neural-network building blocks: activations, norms, projections, convs.

Everything here is a pure function over :class:`~multiconv.autodiff.Tensor`
or a small :class:`Module` owning parameter tensors. Modules draw their
initial weights from a caller-supplied ``numpy.random.Generator`` in a fixed
order, so a seed pins the whole model. Parameters are built in float64;
:meth:`Module.astype` casts a finished module to float32.

Scalar constants are python floats throughout; numpy float64 scalars would
silently promote float32 activations under NumPy 2 promotion rules.

Every layer records one tape node, which adds its bias: ``Linear`` calls
``matmul(x, W, b)``, and the convolutions and ``LayerNorm`` add theirs inside
their own ops. :func:`residual` (the pre-norm residual sum with its dropout)
and :func:`glu` are one node each too, with hand-written backward rules.

Every module is called as ``module(x)``. :func:`dropout_mask` draws every
dropout mask from the active tape's generator, and modules hand diagnostic
arrays to :func:`observe`, which records them only inside :func:`observing`.

The activations' transcendentals branch on the array's dtype. float64 calls
``scipy.special``. float32 uses vectorised numpy forms, one rational for
GELU's normal CDF (:func:`_phi`) and a tanh-form ``expit``, each within
1e-6 absolute of float64 scipy; scipy runs float32 element by element and
is several times slower.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Sequence

import numpy as np
from scipy import special

from .autodiff import FLOAT_DTYPES, Tape, Tensor, check_bias, matmul, record, reshape
from .config import check_even_dim, check_kernels
from .errors import ConfigError, ContractError, ShapeError

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
LN_EPS = 1e-12

# float32 Phi(x) = 1/2 + x * P(x^2) / Q(x^2), Q monic, highest degree first:
# Cody's rational erf form (Math. Comp. 23, 1969) with sqrt(2) and 1/2 folded
# in, fitted on |x| <= 2.5 * sqrt(2) with weight max(1, |x|) (gelu's error is x
# times Phi's); float32-exact. scipy computes Phi past x^2 = _PHI_TAIL.
_PHI_P = (0.00022514946, 0.014277259, 3.7693324, 25.764309, 438.56885)
_PHI_Q = (23.250486, 247.81319, 1099.3271)  # below the leading y^3
_PHI_TAIL = 12.5


# ---------------------------------------------------------------------------
# activations


def _phi(x: np.ndarray) -> np.ndarray:
    """Normal CDF as a new array: by scipy in float64; in float32 the rational
    above on three buffers, run on every x (a huge x's square overflows, and
    the tail overwrites it), with scipy's ``ndtr`` past the tail. x is never written."""
    if x.dtype != np.float32:
        return (special.erf(x * INV_SQRT2) + 1.0) * 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * x
        phi = y * _PHI_P[0]
        for a in _PHI_P[1:-1]:
            phi += a
            phi *= y
        phi += _PHI_P[-1]
        q = y + _PHI_Q[0]
        for b in _PHI_Q[1:]:
            q *= y
            q += b
        phi *= x
        phi /= q
        phi += 0.5
    if not y.max(initial=0.0) <= _PHI_TAIL:  # true for a NaN too: then look element-wise
        tail = np.flatnonzero(y > _PHI_TAIL)
        phi.flat[tail] = special.ndtr(x.flat[tail])
    return phi


def _expit(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid: scipy in float64; 0.5 * tanh(x / 2) + 0.5 in float32."""
    if x.dtype != np.float32:
        return special.expit(x)
    s = x * 0.5
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, exact erf form: x * Phi(x)."""
    phi = _phi(x.data)
    out = Tensor(x.data * phi)

    def bwd(g):  # g * (Phi + x * exp(-x^2 / 2) / sqrt(2 pi)) in one buffer
        d = np.square(x.data)
        d *= -0.5
        np.exp(d, out=d)
        d *= INV_SQRT_2PI
        d *= x.data
        d += phi
        d *= g
        return (d,)

    return record(out, (x,), bwd)


def swish(x: Tensor) -> Tensor:
    """Sigmoid-weighted linear unit x * sigmoid(x)."""
    s = _expit(x.data)
    out = Tensor(x.data * s)

    def bwd(g):
        return (g * (s + x.data * s * (1.0 - s)),)

    return record(out, (x,), bwd)


def softmax_forward(a: np.ndarray) -> np.ndarray:
    """Softmax of an array over its last axis, max-shifted for stability."""
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient through a softmax with output ``y``, given dL/dy = ``g``."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, max-shifted for stability."""
    y = softmax_forward(x.data)
    return record(Tensor(y), (x,), lambda g: (softmax_backward(y, g),))


def glu(x: Tensor) -> Tensor:
    """Gated linear unit a * sigmoid(b), a and b the first and second half of
    the channels, as one node (Dauphin et al., arXiv 1612.08083)."""
    c = x.shape[-1]
    if c % 2:
        raise ShapeError(f"glu needs an even channel count, got {c}")
    a = x.data[..., :c // 2]
    s = _expit(x.data[..., c // 2:])

    def bwd(g):
        return (np.concatenate([g * s, g * a * s * (1.0 - s)], axis=-1),)

    return record(Tensor(a * s), (x,), bwd)


def dropout_mask(shape: tuple[int, ...], dtype, p: float) -> np.ndarray | None:
    """Inverted-dropout mask for ``shape``, 1 / (1 - p) with probability 1 - p
    else 0, drawn from the innermost active tape's generator. None (keep all)
    when p == 0 or when no tape, or a tape without a generator, is active."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    tape = Tape.active()
    if p == 0.0 or tape is None or tape.rng is None:
        return None
    keep = 1.0 - p
    return (tape.rng.random(shape) < keep).astype(dtype) / keep


def dropout(x: Tensor, p: float) -> Tensor:
    """Inverted dropout with a :func:`dropout_mask`; identity when it gives none."""
    mask = dropout_mask(x.shape, x.dtype, p)
    return x if mask is None else record(Tensor(x.data * mask), (x,), lambda g: (g * mask,))


def residual(x: Tensor, h: Tensor, c: float, p: float) -> Tensor:
    """The residual sum x + c * dropout(h, p) as one node, the mask from
    :func:`dropout_mask`. x's gradient is g itself, as ``add`` gives it, and
    x.data is never written, so x may be a view of a cached table."""
    if x.shape != h.shape:
        raise ShapeError(f"residual: shapes {x.shape} and {h.shape} differ")
    mask = dropout_mask(h.shape, h.dtype, p)
    hm = h.data if mask is None else h.data * mask

    def bwd(g):
        return g, (g * c if mask is None else g * c * mask)

    return record(Tensor(x.data + hm * c), (x, h), bwd)


_observer = threading.local()


@contextlib.contextmanager
def observing():
    """Collect ``{module: [arrays in call order]}`` from the :func:`observe`
    calls in the block, per thread; a nested block restores the outer one."""
    outer = getattr(_observer, "seen", None)
    _observer.seen = seen = {}
    try:
        yield seen
    finally:
        _observer.seen = outer


def observe(module, array: np.ndarray) -> None:
    """Record a copy of ``array`` under ``module``, if observing() is open."""
    seen = getattr(_observer, "seen", None)
    if seen is not None:
        seen.setdefault(module, []).append(array.copy())


# ---------------------------------------------------------------------------
# parameter containers


def _uniform(rng: np.random.Generator, shape, bound: float) -> Tensor:
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class Module:
    """Minimal parameter container with deterministic traversal order."""

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        found: list[tuple[str, Tensor]] = []
        for key, value in self.__dict__.items():
            path = f"{prefix}{key}"
            if isinstance(value, Tensor) and value.requires_grad:
                found.append((path, value))
            elif isinstance(value, Module):
                found.extend(value.named_parameters(f"{path}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        found.extend(item.named_parameters(f"{path}.{i}."))
                    elif isinstance(item, Tensor) and item.requires_grad:
                        found.append((f"{path}.{i}", item))
        return found

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def param_count(self) -> int:
        return sum(t.size for t in self.parameters())

    def zero_grad(self) -> None:
        for t in self.parameters():
            t.zero_grad()

    def astype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` (float32 or float64) in place and
        return the module."""
        if np.dtype(dtype) not in FLOAT_DTYPES:
            raise ContractError(f"parameters must be float32 or float64, got {np.dtype(dtype)}")
        for t in self.parameters():
            t.data = t.data.astype(dtype, copy=False)
        return self


class Linear(Module):
    """Affine map over the last axis: y = x @ W + b, W stored [d_in, d_out]."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        bound = 1.0 / math.sqrt(d_in)
        self.weight = _uniform(rng, (d_in, d_out), bound)
        self.bias = _uniform(rng, (d_out,), bound)

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.weight, self.bias)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, lo: int = 0) -> Tensor:
    """Normalize channels [lo:] of the last axis, read in place, to zero mean
    / unit variance, then scale by ``gamma`` and shift by ``beta``, as one
    node. Backward returns a full-width gradient, zero on channels [:lo]."""
    xs = x.data[..., lo:]
    if xs.shape[-1] != gamma.shape[0]:
        raise ShapeError(f"layer norm over {gamma.shape[0]} channels got {x.shape}[{lo}:]")
    n = xs.shape[-1]
    # sum / n is .mean's value bit for bit, without its Python overhead
    centered = xs - xs.sum(axis=-1, keepdims=True) / n
    var = np.square(centered).sum(axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv_std
    n_inv = 1.0 / n

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        d_gamma = (g * xhat).sum(axis=lead)
        d_beta = g.sum(axis=lead)
        gh = g * gamma.data
        m1 = gh.sum(axis=-1, keepdims=True) * n_inv
        m2 = (gh * xhat).sum(axis=-1, keepdims=True) * n_inv
        dx = (gh - m1 - xhat * m2) * inv_std
        if lo:
            dx = np.concatenate([np.zeros_like(x.data[..., :lo]), dx], axis=-1)
        return dx, d_gamma, d_beta

    return record(Tensor(xhat * gamma.data + beta.data), (x, gamma, beta), bwd)


class LayerNorm(Module):
    """Normalize the last axis to zero mean / unit variance, then affine."""

    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


def _kernel_list(op: str, weights: Sequence[Tensor], biases: Sequence[Tensor], lead: tuple,
                 out_shape: tuple) -> tuple[int, list[slice]]:
    """Check a conv op's kernels [*lead, k_i odd], one bias each that fits
    ``out_shape``, and return the widest width and the centred slice of it
    that each kernel's taps take; each op lays its kernels out itself."""
    if not weights or len(biases) != len(weights):
        raise ShapeError(f"{op}: {len(weights)} kernels need one bias each, got {len(biases)}")
    for w in weights:
        if w.shape[:-1] != lead or w.shape[-1] % 2 == 0:
            raise ShapeError(f"{op}: kernel {w.shape} is not [{', '.join(map(str, lead))}, odd k]")
    for b in biases:
        check_bias(op, b, out_shape)
    width = max(w.shape[-1] for w in weights)
    return width, [slice((width - w.shape[-1]) // 2, (width + w.shape[-1]) // 2) for w in weights]


def depthwise_conv(x: Tensor, weights: Sequence[Tensor], biases: Sequence[Tensor],
                   mix: Tensor | None = None) -> Tensor:
    """Per-channel convolution over time of x[T, C] with the kernels
    weights[i][C, k_i] (k_i odd), each centred in the widest, and biases b_i[C],
    same-length zero padding. One kernel k is the plain convolution
    out_i[t, c] = sum_j x[t + j - k//2, c] * w_i[c, j] + b_i[c]. More kernels
    are the ``sum`` fusion, folded into one summed kernel plus the biases
    summed in list order, or, given ``mix`` alpha[T, P], the ``weighted``
    fusion out[t] = sum_i alpha[t, i] * out_i[t], each kernel on its own taps.

    Taps are rows [k, C]: folded, the kernels added into one widest zero row
    in list order; mixed, one row per kernel, read from its slice's start in
    the shared pad. One node runs one shifted multiply-add per tap from one
    padded input, forward and backward. A folded kernel's gradient is
    cropped back to each kernel, and each bias gets its own copy of db.
    Mixed kernel i takes g * alpha[:, i], and x's gradient sums the
    kernels' from last to first.
    """
    if x.ndim != 2:
        raise ShapeError(f"depthwise_conv: x must be [T, C], got {x.shape}")
    t, c = x.shape
    width, spots = _kernel_list("depthwise_conv", weights, biases, (c,), x.shape)
    if mix is None:  # one row: the summed kernel and biases
        taps = np.zeros((width, c), dtype=weights[0].dtype)
        for w, s in zip(weights, spots):
            taps[s] += w.data.T
        rows = [(taps, 0, sum((b.data for b in biases[1:]), biases[0].data))]
    elif mix.shape != (t, len(weights)):
        raise ShapeError(f"depthwise_conv: mix {mix.shape} is not [{t}, {len(weights)}]")
    else:  # one row per kernel, mixed after
        rows = [(np.ascontiguousarray(w.data.T), s.start, b.data)
                for w, s, b in zip(weights, spots, biases)]
    xpad = np.zeros((t + width - 1, c), dtype=x.data.dtype)
    xpad[width // 2:width // 2 + t] = x.data
    outs = [np.zeros((t, c), dtype=x.data.dtype) for _ in rows]
    for acc, (taps, lo, b) in zip(outs, rows):  # lo: the row's first tap in the shared pad
        for j in range(len(taps)):
            acc += xpad[lo + j:lo + j + t] * taps[j]
        acc += b
    out = outs[0] if mix is None else outs[0] * mix.data[:, 0:1]
    for i in range(1, len(outs)):
        out += outs[i] * mix.data[:, i:i + 1]

    def bwd(g):
        dws, dbs, dx = [None] * len(rows), [None] * len(rows), None
        for i in reversed(range(len(rows))):  # sums x's gradient as a tape sums P nodes'
            taps, lo, _ = rows[i]
            gi = g if mix is None else g * mix.data[:, i:i + 1]
            k = len(taps)
            dws[i] = np.empty((c, k), dtype=taps.dtype)
            for j in range(k):
                dws[i][:, j] = np.einsum("tc,tc->c", xpad[lo + j:lo + j + t], gi)
            gpad = np.zeros((t + k - 1, c), dtype=xpad.dtype)
            for j in range(k):
                gpad[j:j + t] += gi * taps[j]
            dbs[i] = gi.sum(axis=0)
            if dx is None:
                dx = gpad[k // 2:k // 2 + t]
            else:
                dx += gpad[k // 2:k // 2 + t]
        if mix is None:
            return (dx, *(dws[0][:, s].copy() for s in spots),
                    dbs[0], *(dbs[0].copy() for _ in biases[1:]))
        return (dx, *dws, *dbs, np.stack([(g * v).sum(axis=1) for v in outs], axis=1))

    return record(Tensor(out), (x, *weights, *biases, *(() if mix is None else (mix,))), bwd)


def _im2col(x: np.ndarray, k: int, groups: int) -> np.ndarray:
    """Same-padded time windows of x[T, groups*n] as [groups, T, k*n]: row t
    of group g holds frames t - k//2 .. t + k//2 of that group's n lanes,
    frame-major. Each row is one contiguous run of the padded input."""
    t = x.shape[0]
    n = x.shape[1] // groups
    half = k // 2
    xpad = np.zeros((groups, (t + k - 1) * n), dtype=x.dtype)
    lanes = xpad.reshape(groups, t + k - 1, n)
    lanes[:, half:half + t] = x.reshape(t, groups, n).transpose(1, 0, 2)
    win = np.lib.stride_tricks.sliding_window_view(xpad, k * n, axis=1)[:, ::n]
    return np.ascontiguousarray(win)


def grouped_conv(x: Tensor, weights: Sequence[Tensor], biases: Sequence[Tensor]) -> Tensor:
    """Grouped convolution over time of x[T, G*I] with each kernel
    weights[i][G, O, I, k_i], same-length zero padding (k_i odd): the
    concatenation, in list order, of each kernel's output [T, G*O] plus its
    bias b_i[G*O]. Output block g of a kernel (channels g*O .. g*O+O-1) is
    computed from input block g only. More kernels are the ``concat``
    fusion of their convolutions, folded.

    The kernels, each centred in the widest, fill one kernel [G, P*O, k, I]
    in the windows' frame-major order, which runs as im2col plus one
    batched matmul over the groups; its group-major output is written out in
    kernel order. Backward gets dW from the saved columns by a second
    batched matmul, cropped back to each kernel, and dx as the same
    convolution of the output gradient with the in/out-swapped, tap-flipped
    kernel, all in one node.
    """
    if (x.ndim != 2 or not weights or weights[0].ndim != 4
            or weights[0].shape[0] * weights[0].shape[2] != x.shape[1]):
        raise ShapeError(f"grouped_conv: x {x.shape} is not [T, G*I] for the kernels "
                         f"[G, O, I, k] {[w.shape for w in weights]}")
    groups, opg, ipg, _ = weights[0].shape
    t, p = x.shape[0], len(weights)
    k, spots = _kernel_list("grouped_conv", weights, biases, (groups, opg, ipg), (t, groups * opg))
    rows = p * opg
    w = np.zeros((groups, rows, k, ipg), dtype=weights[0].dtype)  # [G, P*O, k, I]
    for i, (wi, s) in enumerate(zip(weights, spots)):
        w[:, i * opg:(i + 1) * opg, s] = wi.data.transpose(0, 1, 3, 2)
    cols = _im2col(x.data, k, groups)  # [G, T, k*I]
    y = cols @ w.reshape(groups, rows, k * ipg).transpose(0, 2, 1)  # [G, T, P*O]
    out = y.reshape(groups, t, p, opg).transpose(1, 2, 0, 3).reshape(t, p * groups * opg)
    out += np.concatenate([b.data for b in biases])

    def bwd(g):
        gy = g.reshape(t, p, groups, opg).transpose(0, 2, 1, 3).reshape(t, groups * rows)
        g3 = gy.reshape(t, groups, rows).transpose(1, 2, 0)  # [G, P*O, T]
        dw = (g3 @ cols).reshape(groups, p, opg, k, ipg).transpose(0, 1, 2, 4, 3)
        flipped = w[:, :, ::-1].transpose(0, 3, 2, 1).reshape(groups, ipg, k * rows)
        dx = _im2col(gy, k, groups) @ flipped.transpose(0, 2, 1)  # [G, T, I]
        db = g.sum(axis=0).reshape(p, groups * opg)
        return (dx.transpose(1, 0, 2).reshape(t, groups * ipg),
                *(dw[:, i, ..., s].copy() for i, s in enumerate(spots)), *db)

    return record(Tensor(out), (x, *weights, *biases), bwd)


class DepthwiseConv1d(Module):
    """Per-channel 1-d convolution over time with same-length zero padding.

    Input and output are [T, C]; channel c is filtered only by kernel row c.
    The kernel width must be odd so padding is symmetric.
    """

    def __init__(self, channels: int, kernel: int, rng: np.random.Generator):
        (kernel,) = check_kernels((kernel,))
        self.kernel = kernel
        bound = 1.0 / math.sqrt(kernel)
        self.weight = _uniform(rng, (channels, kernel), bound)
        self.bias = _uniform(rng, (channels,), bound)

    def __call__(self, x: Tensor) -> Tensor:
        return depthwise_conv(x, [self.weight], [self.bias])


class GroupedConv1d(Module):
    """Grouped 1-d convolution over time, same-length zero padding.

    Channels are split into ``groups`` contiguous blocks; output block g is
    computed from input block g only. Weight layout is
    [groups, out_per_group, in_per_group, kernel].
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 groups: int, rng: np.random.Generator):
        (kernel,) = check_kernels((kernel,))
        if groups < 1 or in_channels % groups or out_channels % groups:
            raise ConfigError(
                f"groups={groups} must divide in={in_channels} and out={out_channels}")
        ipg = in_channels // groups
        opg = out_channels // groups
        bound = 1.0 / math.sqrt(ipg * kernel)
        self.weight = _uniform(rng, (groups, opg, ipg, kernel), bound)
        self.bias = _uniform(rng, (out_channels,), bound)

    def __call__(self, x: Tensor) -> Tensor:
        return grouped_conv(x, [self.weight], [self.bias])


class Conv2dDown(Module):
    """3x3 convolution with stride 2 and no padding over a [T, F, C] map.

    Runs as patch-gather + matmul inside BLAS. Patches are gathered
    channel-last, [t, f, di, dj, C], in runs of C contiguous floats; the
    stored [C*k*k, O] weight is permuted to that row order on each call, and
    dW back. Backward skips dx when the input (e.g. the features) does not
    require grad.
    """

    KERNEL = 3
    STRIDE = 2

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator):
        k = self.KERNEL
        bound = 1.0 / math.sqrt(in_channels * k * k)
        self.weight = _uniform(rng, (in_channels * k * k, out_channels), bound)
        self.bias = _uniform(rng, (out_channels,), bound)
        self.in_channels = in_channels
        self.out_channels = out_channels

    @staticmethod
    def out_len(n: int) -> int:
        return (n - 1) // 2

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ShapeError(f"conv2d over {self.in_channels} channels got {x.shape}")
        t_in, f_in = x.shape[0], x.shape[1]
        k, s = self.KERNEL, self.STRIDE
        if t_in < k or f_in < k:
            raise ShapeError(f"conv2d input {x.shape} smaller than its {k}x{k} kernel")
        t_out, f_out = self.out_len(t_in), self.out_len(f_in)
        c, o = self.in_channels, self.out_channels
        w, b = self.weight, self.bias
        win = np.lib.stride_tricks.sliding_window_view(x.data, (k, k), axis=(0, 1))
        win = win[::s, ::s].transpose(0, 1, 3, 4, 2)  # [t_out, f_out, k, k, C]
        patches = np.ascontiguousarray(win).reshape(t_out * f_out, -1)
        w_rows = w.data.reshape(c, k, k, o).transpose(1, 2, 0, 3).reshape(-1, o)
        y = patches @ w_rows + b.data
        out = Tensor(y.reshape(t_out, f_out, o))

        def bwd(g):
            # BLAS rounds each entry of a matrix-vector product by its place,
            # so one output channel or frame keeps the stored [C, k, k] order
            g2 = g.reshape(t_out * f_out, o)
            dw = ((patches.T @ g2).reshape(k, k, c, o).transpose(2, 0, 1, 3).reshape(-1, o)
                  if o > 1 else
                  patches.reshape(-1, k, k, c).transpose(0, 3, 1, 2).reshape(len(g2), -1).T @ g2)
            db = g2.sum(axis=0)
            if not x.requires_grad:
                return None, dw, db
            gp = ((g2 @ w_rows.T).reshape(t_out, f_out, k, k, c) if len(g2) > 1
                  else (g2 @ w.data.T).reshape(1, 1, c, k, k).transpose(0, 1, 3, 4, 2))
            dx = np.zeros_like(x.data)
            for di in range(k):
                for dj in range(k):
                    dx[di:di + s * t_out:s, dj:dj + s * f_out:s] += gp[:, :, di, dj]
            return dx, dw, db

        return record(out, (x, w, b), bwd)


class FeedForward(Module):
    """Two-layer position-wise network: expand, swish, project back."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator, dropout_p: float = 0.0):
        self.up = Linear(dim, hidden, rng)
        self.down = Linear(hidden, dim, rng)
        self.dropout_p = dropout_p

    def __call__(self, x: Tensor) -> Tensor:
        h = swish(self.up(x))
        h = dropout(h, self.dropout_p)
        return self.down(h)


def sinusoid_table(length: int, dim: int) -> np.ndarray:
    """Classic interleaved sine/cosine position table, shape [length, dim]."""
    check_even_dim(dim)
    pos = np.arange(length, dtype=np.float64)[:, None]
    freq = np.exp(np.arange(0, dim, 2, dtype=np.float64) * (-math.log(10000.0) / dim))
    table = np.empty((length, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(pos * freq)
    table[:, 1::2] = np.cos(pos * freq)
    return table


class Subsampler(Module):
    """Front end: two stride-2 3x3 conv stages, then flatten to model width.

    Maps raw features [L, n_mels] to [T, dim] with T = ((L-1)//2 - 1)//2.
    The shortest admissible input is 7 frames.
    """

    def __init__(self, n_mels: int, dim: int, rng: np.random.Generator):
        self.n_mels = n_mels
        self.dim = dim
        self.conv1 = Conv2dDown(1, dim, rng)
        self.conv2 = Conv2dDown(dim, dim, rng)
        f_out = Conv2dDown.out_len(Conv2dDown.out_len(n_mels))
        self.f_out = f_out
        self.proj = Linear(f_out * dim, dim, rng)

    def out_len(self, length: int) -> int:
        return Conv2dDown.out_len(Conv2dDown.out_len(length))

    def __call__(self, feats: Tensor) -> Tensor:
        if feats.ndim != 2 or feats.shape[1] != self.n_mels:
            raise ShapeError(f"subsampler expects [L, {self.n_mels}], got {feats.shape}")
        length = feats.shape[0]
        if self.out_len(length) < 1:
            raise ShapeError(f"input of {length} frames is too short to subsample")
        x = reshape(feats, (length, self.n_mels, 1))
        x = gelu(self.conv1(x))
        x = gelu(self.conv2(x))
        t_out = x.shape[0]
        x = reshape(x, (t_out, self.f_out * self.dim))
        return self.proj(x)
