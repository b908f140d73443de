"""Finite-difference verification of every backward rule in the package.

Each case pins a scalar-valued function of one array argument, computes the
tape gradient, and compares it against central differences. The comparison
is elementwise: a case passes when

    |g_tape - g_fd|  <=  max(1e-8, tol * |g_fd|)

everywhere, reported as ``max_rel_err`` with the same floor so the pass
condition is exactly ``max_rel_err <= tol``. Primitive ops get tol 1e-5;
deep composites get 1e-4 to absorb accumulated finite-difference noise.

Each audited module gets one case per tensor of its ``named_parameters()``
(see :func:`_param_cases`), so a new parameter is audited without a new
hand-written case.

Everything runs in float64; float32 would drown the comparison in rounding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .attention import MultiHeadAttention
from .autodiff import (
    Tape,
    Tensor,
    add,
    backward,
    matmul,
    mul,
    reshape,
    scale,
    tsum,
)
from .config import EncoderConfig
from .conv_blocks import ConformerConvBlock, CsguBlock, FusionKind, Mcsgu, MultiConvBlock
from .ctc import ctc_loss
from .encoder import CtcModel, Encoder, EncoderLayer
from .errors import IntegrityError
from .layers import (
    Conv2dDown,
    DepthwiseConv1d,
    FeedForward,
    GroupedConv1d,
    LayerNorm,
    Linear,
    Module,
    Subsampler,
    gelu,
    glu,
    residual,
    softmax,
    swish,
)

OP_TOL = 1e-5
COMPOSITE_TOL = 1e-4
FD_STEP = 1e-5
ABS_FLOOR = 1e-8


@dataclass
class CheckResult:
    name: str
    size: int
    max_rel_err: float
    tol: float
    passed: bool


@dataclass
class _Case:
    name: str
    fn: Callable[[Tensor], Tensor]
    x0: np.ndarray
    tol: float


def numeric_gradient(fn: Callable[[np.ndarray], float], x0: np.ndarray,
                     step: float = FD_STEP) -> np.ndarray:
    grad = np.zeros_like(x0, dtype=np.float64)
    flat = grad.reshape(-1)
    base = x0.astype(np.float64)
    for i in range(base.size):
        hi = base.copy().reshape(-1)
        lo = base.copy().reshape(-1)
        hi[i] += step
        lo[i] -= step
        flat[i] = (fn(hi.reshape(x0.shape)) - fn(lo.reshape(x0.shape))) / (2 * step)
    return grad


def tape_gradient(fn: Callable[[Tensor], Tensor], x0: np.ndarray) -> np.ndarray:
    xt = Tensor(x0.astype(np.float64), requires_grad=True)
    with Tape():
        backward(fn(xt))
    if xt.grad is None:
        raise IntegrityError("gradient check case never touched its input")
    return xt.grad


def run_case(case: _Case) -> CheckResult:
    g_tape = tape_gradient(case.fn, case.x0)
    g_fd = numeric_gradient(lambda arr: fn_scalar(case.fn, arr), case.x0)
    denom = np.maximum(np.abs(g_fd), ABS_FLOOR / case.tol)
    rel = float((np.abs(g_tape - g_fd) / denom).max())
    return CheckResult(case.name, case.x0.size, rel, case.tol, rel <= case.tol)


def fn_scalar(fn: Callable[[Tensor], Tensor], arr: np.ndarray) -> float:
    return fn(Tensor(arr)).item()


def _reducer(rng: np.random.Generator):
    """Fixed random projection of an arbitrary tensor down to a scalar."""
    cache: dict[tuple, Tensor] = {}

    def reduce(y: Tensor) -> Tensor:
        if y.shape == ():
            return y
        key = y.shape
        if key not in cache:
            cache[key] = Tensor(rng.normal(size=y.shape))
        return tsum(mul(y, cache[key]))

    return reduce


def _swap(module: Module, path: str, value: Tensor) -> Tensor:
    """Put ``value`` at a dotted ``named_parameters()`` path (list indices
    included); returns the tensor it replaces."""
    *parents, leaf = path.split(".")
    owner = module
    for part in parents:
        owner = owner[int(part)] if isinstance(owner, list) else getattr(owner, part)
    if isinstance(owner, list):
        kept, owner[int(leaf)] = owner[int(leaf)], value
    else:
        kept = getattr(owner, leaf)
        setattr(owner, leaf, value)
    return kept


def _param_cases(case, name: str, module: Module, run: Callable[[], Tensor]) -> None:
    """One case per parameter tensor of ``module``, named ``<name>.<path>``:
    the case swaps its input in at that path, evaluates ``run()``, and puts
    the parameter back. Each starts from the parameter's current value."""
    for path, tensor in module.named_parameters():
        def fn(t, path=path):
            kept = _swap(module, path, t)
            try:
                return run()
            finally:
                _swap(module, path, kept)

        case(f"{name}.{path}", fn, tensor.data.astype(np.float64))


def _op_cases(seed: int) -> list[_Case]:
    # constants feeding each case are drawn once here; drawing inside a case
    # body would shift the function between finite-difference evaluations
    rng = np.random.default_rng(seed)
    red = _reducer(rng)
    tag = f"s{seed}"
    cases: list[_Case] = []

    def case(name, fn, x0, tol=OP_TOL):
        cases.append(_Case(f"{name}[{tag}]", fn, x0, tol))

    a34 = rng.normal(size=(3, 4))
    b45 = rng.normal(size=(4, 5))
    case("matmul.lhs", lambda t: red(matmul(t, Tensor(b45))), a34)
    case("matmul.rhs", lambda t: red(matmul(Tensor(a34), t)), b45)
    case("matmul.bias", lambda t: red(matmul(Tensor(a34), Tensor(b45), t)), rng.normal(size=5))

    x35 = rng.normal(size=(3, 5))
    case("add", lambda t: red(add(t, Tensor(x35))), rng.normal(size=(3, 5)))
    case("mul", lambda t: red(mul(t, Tensor(x35))), rng.normal(size=(3, 5)))
    case("scale", lambda t: red(scale(t, -1.7)), rng.normal(size=(4, 2)))

    case("reshape", lambda t: red(reshape(t, (2, 6))), rng.normal(size=(3, 4)))
    case("tsum", lambda t: tsum(t), rng.normal(size=(3, 3)))

    case("gelu", lambda t: red(gelu(t)), rng.normal(size=(4, 5)))
    case("gelu.wide", lambda t: red(gelu(t)), 3.0 * rng.normal(size=(3, 3)))
    case("swish", lambda t: red(swish(t)), rng.normal(size=(4, 5)))
    case("softmax", lambda t: red(softmax(t)), rng.normal(size=(5, 4)))
    case("softmax.3d", lambda t: red(softmax(t)), rng.normal(size=(2, 3, 4)))
    case("glu", lambda t: red(glu(t)), rng.normal(size=(5, 6)))

    norm = LayerNorm(6)
    norm.gamma.data = rng.normal(size=6)
    norm.beta.data = rng.normal(size=6)
    x_ln = rng.normal(size=(4, 6))
    case("layer_norm.x", lambda t: red(norm(t)), x_ln.copy())
    _param_cases(case, "layer_norm", norm, lambda: red(norm(Tensor(x_ln))))

    lin = Linear(5, 3, rng)
    x_lin = rng.normal(size=(4, 5))
    case("linear.x", lambda t: red(lin(t)), x_lin.copy())
    _param_cases(case, "linear", lin, lambda: red(lin(Tensor(x_lin))))

    for k in (1, 3, 7):
        dw = DepthwiseConv1d(4, k, rng)
        x_dw = rng.normal(size=(9, 4))
        case(f"depthwise_k{k}.x", lambda t, dw=dw: red(dw(t)), x_dw.copy())
        _param_cases(case, f"depthwise_k{k}", dw,
                     lambda dw=dw, x_dw=x_dw: red(dw(Tensor(x_dw))))

    for label, (cin, cout, groups, k) in {
        "a": (8, 8, 4, 3),
        "b": (8, 4, 4, 5),
        "c": (6, 6, 2, 3),
    }.items():
        gc = GroupedConv1d(cin, cout, k, groups, rng)
        x_gc = rng.normal(size=(7, cin))
        case(f"grouped_{label}.x", lambda t, gc=gc: red(gc(t)), x_gc.copy())
        _param_cases(case, f"grouped_{label}", gc,
                     lambda gc=gc, x_gc=x_gc: red(gc(Tensor(x_gc))))

    c2 = Conv2dDown(2, 3, rng)
    x_c2 = rng.normal(size=(7, 9, 2))
    case("conv2d.x", lambda t: red(c2(t)), x_c2.copy())
    _param_cases(case, "conv2d", c2, lambda: red(c2(Tensor(x_c2))))

    # from arrays drawn above, and reduced at a shape already seen, so adding
    # these cases moves no random draw of the cases before them
    case("add.parts", lambda t: red(add(t, Tensor(x35), mul(t, t))), a34 @ b45)
    case("residual.x", lambda t: red(residual(t, Tensor(x35), 0.5, 0.0)), a34 @ b45)
    case("residual.h", lambda t: red(residual(Tensor(x35), t, 0.5, 0.0)), a34 @ b45)
    return cases


def _composite_cases(seed: int) -> list[_Case]:
    rng = np.random.default_rng(seed + 1000)
    red = _reducer(rng)
    cases: list[_Case] = []

    def case(name, fn, x0, tol=COMPOSITE_TOL):
        cases.append(_Case(name, fn, x0, tol))

    ffn = FeedForward(6, 10, rng)
    case("feed_forward.x", lambda t: red(ffn(t)), rng.normal(size=(5, 6)))

    sub = Subsampler(9, 6, rng)
    x_sub = rng.normal(size=(17, 9))
    case("subsampler.x", lambda t: red(sub(t)), x_sub.copy())
    _param_cases(case, "subsampler", sub, lambda: red(sub(Tensor(x_sub))))

    x_unit = rng.normal(size=(7, 12))
    for fusion in FusionKind:
        unit = Mcsgu(12, (3, 5), fusion, rng)
        if unit.gate is not None:  # a mixture that varies over frames
            unit.gate.weight.data = rng.normal(size=unit.gate.weight.shape)
        case(f"mcsgu_{fusion.value}.a", lambda t, unit=unit: red(unit(t)),
             rng.normal(size=(8, 12)))
        _param_cases(case, f"mcsgu_{fusion.value}", unit,
                     lambda unit=unit: red(unit(Tensor(x_unit))))

    for fusion in FusionKind:
        block = MultiConvBlock(6, 8, (3, 5), fusion, rng)
        case(f"multiconv_block_{fusion.value}.x", lambda t, block=block: red(block(t)),
             rng.normal(size=(7, 6)))

    blk = MultiConvBlock(6, 8, (3,), FusionKind.SUM, rng)
    x_blk = rng.normal(size=(6, 6))
    _param_cases(case, "multiconv_block", blk, lambda: red(blk(Tensor(x_blk))))

    csgu_blk = CsguBlock(6, 8, 3, rng)
    case("csgu_block.x", lambda t: red(csgu_blk(t)), rng.normal(size=(6, 6)))
    conf = ConformerConvBlock(6, 5, rng)
    x_conf = rng.normal(size=(7, 6))
    case("conformer_block.x", lambda t: red(conf(t)), x_conf.copy())
    _param_cases(case, "conformer_block", conf, lambda: red(conf(Tensor(x_conf))))

    for heads in (1, 2):
        att = MultiHeadAttention(6, heads, rng)

        def att_x(t, att=att):
            return red(att(t))

        case(f"attention_h{heads}.x", att_x, rng.normal(size=(5, 6)))

    att = MultiHeadAttention(6, 2, rng)
    x_att = rng.normal(size=(4, 6))
    _param_cases(case, "attention", att, lambda: red(att(Tensor(x_att))))

    tiny = EncoderConfig(dim=6, layers=1, heads=2, d_inter=8, d_ffn=10,
                         conv_block="multiconv", fusion="depth", kernels=(3, 5),
                         n_mels=9, vocab=3)
    layer_cfgs = [
        ("layer_multiconv_sum", replace(tiny, fusion="sum")),
        ("layer_multiconv_depth", tiny),
        ("layer_conformer", replace(tiny, conv_block="conformer", fusion="sum", kernels=(3,))),
    ]
    for name, cfg in layer_cfgs:
        layer = EncoderLayer(cfg, rng)

        def layer_x(t, layer=layer):
            return red(layer(t))

        case(f"{name}.x", layer_x, rng.normal(size=(6, 6)))

    enc_cfgs = [
        ("encoder_weighted", "multiconv", "weighted"),
        ("encoder_csgu", "csgu", "sum"),
    ]
    for name, block_kind, fusion in enc_cfgs:
        enc = Encoder(replace(tiny, conv_block=block_kind, fusion=fusion), rng)

        def enc_x(t, enc=enc):
            return red(enc(t))

        case(f"{name}.feats", enc_x, rng.normal(size=(16, 9)))

    ctc_specs = [
        ("ctc.basic", 6, 4, [1, 2, 3]),
        ("ctc.repeat", 7, 3, [2, 2, 1]),
        ("ctc.tight", 4, 3, [1, 1]),
        ("ctc.empty", 3, 2, []),
    ]
    for name, t_len, vocab, labels in ctc_specs:
        logits0 = rng.normal(size=(t_len, vocab + 1))

        def ctc_fn(t, labels=labels):
            loss, ok = ctc_loss(t, labels)
            if not ok:
                raise IntegrityError("gradient check hit an infeasible lattice")
            return loss

        case(name, ctc_fn, logits0)

    model = CtcModel(tiny, rng)
    feats0 = rng.normal(size=(16, 9))
    labels0 = [1, 3, 2]

    def model_loss(feats: Tensor) -> Tensor:
        return ctc_loss(model(feats), labels0)[0]

    case("ctc_model.feats", model_loss, feats0.copy())
    _param_cases(case, "ctc_model", model, lambda: model_loss(Tensor(feats0)))
    return cases


def build_cases(seed: int = 0) -> list[_Case]:
    cases = _op_cases(seed) + _op_cases(seed + 1) + _composite_cases(seed)
    names = [c.name for c in cases]
    if len(set(names)) != len(names):
        raise IntegrityError("duplicate gradient check case names")
    return cases


def run_suite(seed: int = 0) -> tuple[list[CheckResult], float]:
    """Run every case; returns (results, elapsed_seconds)."""
    started = time.perf_counter()
    results = [run_case(c) for c in build_cases(seed)]
    return results, time.perf_counter() - started
