"""Fused nodes against their references on drawn shapes.

The two conv ops' kernel-list forms are checked bit for bit against the
composite of fold, conv and reorder nodes they replaced
(``oracles.depthwise_composite`` and ``oracles.grouped_composite``), and for
closeness against the loop definitions of the fusions: the sum, or the
concatenation, of the branch convolutions. ``depthwise_conv`` with a
``mix`` is checked bit for bit against the one-kernel convs and the
``oracles.mix_rows`` node it replaced, and for closeness against the mix
of the loop convolutions. ``gelu`` is checked against the float64 scipy
formula; ``glu``, ``residual`` and ``conv_blocks.gate`` bit for bit against
the composites they replaced; ``Conv2dDown`` against
``oracles.conv2d_down_reference``; ``layer_norm`` (a right part [lo:] read
in place) against ``layer_norm_rows`` and its complex-step gradient; and
``oracles.mix_rows`` against its loop references. Kernel lists come in
any order, repeats included, as the ops accept them. ``MultiHeadAttention``
is checked bit for bit against ``oracles.attention_reference`` (dropout
under a tape's generator included), and ``dropout_mask`` against
``oracles.dropout_mask_loops`` under no tape, a tape and a tape with a
generator. The draws are derandomised, so every run checks the same cases.
"""

import numpy as np
import pytest
from scipy import special
from hypothesis import given, settings, strategies as st

import oracles
from multiconv.attention import MultiHeadAttention
from multiconv.autodiff import Tape, Tensor, backward, mul, tsum
from multiconv.conv_blocks import gate
from multiconv.errors import ShapeError
from multiconv.layers import (INV_SQRT2, INV_SQRT_2PI, Conv2dDown, depthwise_conv, dropout_mask,
                              gelu, glu, grouped_conv, layer_norm, residual)

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)
TOL = {np.float32: 1e-5, np.float64: 1e-12}
MIX_TOL = {np.float32: 1e-6, np.float64: 1e-12}
TOL_CONV2D = {np.float32: 1e-6, np.float64: 1e-14}  # as tests/test_layers.py


@st.composite
def kernel_lists(draw):
    """(widths, T, dtype, x requires grad, seed): 1 to 4 odd widths up to 15
    in any order, repeats included, as the ops accept them, and T of 1,
    below the widest or above it."""
    halves = draw(st.lists(st.integers(0, 7), min_size=1, max_size=4))
    widths = tuple(2 * h + 1 for h in halves)
    k_max = max(widths)
    length = draw(st.sampled_from(["long", "short", "one"]))
    if length == "one":
        t_len = 1
    elif length == "short":
        t_len = draw(st.integers(1, max(1, k_max - 1)))
    else:
        t_len = draw(st.integers(k_max + 1, k_max + 8))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return widths, t_len, dtype, draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


def _run(op, x, weights, biases, g, x_grad, *mix):
    """Output, x's gradient (None when x takes none), each kernel's and each
    bias's gradient (then the mix's, when one is given) and the node count
    of ``op`` under sum(g * out)."""
    xt = Tensor(x, requires_grad=x_grad)
    ws = [Tensor(w, requires_grad=True) for w in weights]
    bs = [Tensor(b, requires_grad=True) for b in biases]
    ms = [Tensor(m, requires_grad=True) for m in mix]
    with Tape() as tape:
        out = op(xt, ws, bs, *ms)
        nodes = len(tape)
        backward(tsum(mul(out, Tensor(g))))
    grads = [t.grad for t in (*ws, *bs, *ms)]
    return [out.data, xt.grad, *grads], nodes


def _check(got, composite, loops, dtype):
    arrays, nodes = got
    assert nodes == 1
    if composite is not None:
        for ours, theirs in zip(arrays, composite[0]):
            assert (ours is None) == (theirs is None)
            assert ours is None or (ours.dtype == dtype and np.array_equal(ours, theirs))
    for ours, want in zip(arrays, loops):
        assert (ours is None) == (want is None)
        if ours is not None:
            assert ours.shape == want.shape
            assert np.abs(ours - want).max() <= TOL[dtype] * max(1.0, np.abs(want).max())


@SETTINGS
@given(case=kernel_lists(), channels=st.integers(1, 5))
def test_depthwise_kernel_list_is_the_sum_of_its_branch_convolutions(case, channels):
    widths, t_len, dtype, x_grad, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(t_len, channels)).astype(dtype)
    weights = [rng.normal(size=(channels, k)).astype(dtype) for k in widths]
    biases = [rng.normal(size=channels).astype(dtype) for _ in widths]
    g = rng.normal(size=(t_len, channels)).astype(dtype)
    x64, g64 = x.astype(np.float64), g.astype(np.float64)
    out = sum(oracles.depthwise_conv_loops(x64, w.astype(np.float64), b.astype(np.float64))
              for w, b in zip(weights, biases))
    # a depthwise conv is a grouped one with one lane in and out per group
    grads = [oracles.grouped_conv_grads_loops(x64, w.astype(np.float64)[:, None, None], g64,
                                              channels) for w in weights]
    loops = [out, sum(dx for dx, _ in grads) if x_grad else None,
             *(dw[:, 0, 0] for _, dw in grads), *(g64.sum(axis=0) for _ in biases)]
    _check(_run(depthwise_conv, x, weights, biases, g, x_grad),
           _run(oracles.depthwise_composite, x, weights, biases, g, x_grad), loops, dtype)


def _branch_mix(x, ws, bs, alpha):
    """The ``weighted`` fusion as one-kernel convs and a mix_rows node."""
    return oracles.mix_rows([depthwise_conv(x, [w], [b]) for w, b in zip(ws, bs)], alpha)


@SETTINGS
@given(case=kernel_lists(), channels=st.integers(1, 5))
def test_depthwise_mix_is_the_weighted_sum_of_its_branch_convolutions(case, channels):
    widths, t_len, dtype, x_grad, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(t_len, channels)).astype(dtype)
    weights = [rng.normal(size=(channels, k)).astype(dtype) for k in widths]
    biases = [rng.normal(size=channels).astype(dtype) for _ in widths]
    alpha = oracles.softmax_rows(rng.normal(size=(t_len, len(widths)))).astype(dtype)
    g = rng.normal(size=(t_len, channels)).astype(dtype)
    x64, g64 = x.astype(np.float64), g.astype(np.float64)
    outs = [oracles.depthwise_conv_loops(x64, w.astype(np.float64), b.astype(np.float64))
            for w, b in zip(weights, biases)]
    g_outs, d_alpha = oracles.mix_rows_grads_loops(outs, alpha, g64)
    grads = [oracles.grouped_conv_grads_loops(x64, w.astype(np.float64)[:, None, None], gi,
                                              channels) for w, gi in zip(weights, g_outs)]
    loops = [oracles.mix_rows_loops(outs, alpha), sum(dx for dx, _ in grads) if x_grad else None,
             *(dw[:, 0, 0] for _, dw in grads), *(gi.sum(axis=0) for gi in g_outs), d_alpha]
    mixed = _run(lambda xt, ws, bs, at: depthwise_conv(xt, ws, bs, mix=at),
                 x, weights, biases, g, x_grad, alpha)
    _check(mixed, _run(_branch_mix, x, weights, biases, g, x_grad, alpha), loops, dtype)


@pytest.mark.parametrize("shape", [(5, 2), (6, 3), (1, 3)])
def test_depthwise_mix_must_be_one_weight_per_frame_and_kernel(shape):
    x = Tensor(np.ones((5, 4)))
    weights = [Tensor(np.ones((4, k))) for k in (1, 3, 5)]
    biases = [Tensor(np.zeros(4)) for _ in weights]
    with pytest.raises(ShapeError, match="mix"):
        depthwise_conv(x, weights, biases, mix=Tensor(np.full(shape, 1.0 / 3)))


@SETTINGS
@given(case=kernel_lists(), groups=st.integers(1, 3), opg=st.integers(1, 2),
       ipg=st.integers(1, 3))
def test_grouped_kernel_list_is_the_concatenation_of_its_branch_convolutions(
        case, groups, opg, ipg):
    widths, t_len, dtype, x_grad, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(t_len, groups * ipg)).astype(dtype)
    weights = [rng.normal(size=(groups, opg, ipg, k)).astype(dtype) for k in widths]
    biases = [rng.normal(size=groups * opg).astype(dtype) for _ in widths]
    g = rng.normal(size=(t_len, len(widths) * groups * opg)).astype(dtype)
    x64 = x.astype(np.float64)
    blocks = np.split(g.astype(np.float64), len(widths), axis=1)
    out = np.concatenate([
        oracles.grouped_conv_loops(x64, w.astype(np.float64), b.astype(np.float64), groups)
        for w, b in zip(weights, biases)], axis=1)
    grads = [oracles.grouped_conv_grads_loops(x64, w.astype(np.float64), gi, groups)
             for w, gi in zip(weights, blocks)]
    loops = [out, sum(dx for dx, _ in grads) if x_grad else None,
             *(dw for _, dw in grads), *(gi.sum(axis=0) for gi in blocks)]
    # the old reorder node put one output per group of each kernel in place
    composite = (_run(oracles.grouped_composite, x, weights, biases, g, x_grad)
                 if opg == 1 or len(widths) == 1 else None)
    _check(_run(grouped_conv, x, weights, biases, g, x_grad), composite, loops, dtype)


@st.composite
def shapes(draw, dims=(1, 3), size=6):
    """(shape, dtype, seed): 1 to 3 axes of 1 to ``size`` each."""
    shape = tuple(draw(st.lists(st.integers(1, size), min_size=dims[0], max_size=dims[1])))
    return shape, draw(st.sampled_from([np.float32, np.float64])), draw(st.integers(0, 2 ** 32 - 1))


# 3.54 is where Phi's float32 rational hands over to scipy; 1e20 squares
# past float32's range
@SETTINGS
@given(case=shapes(size=8), scale=st.sampled_from([1e-3, 1.0, 2.5, 3.54, 6.0, 30.0, 1e20]))
def test_gelu_is_the_float64_scipy_formula(case, scale):
    shape, dtype, seed = case
    rng = np.random.default_rng(seed)
    x = (scale * rng.normal(size=shape)).astype(dtype)
    g = rng.uniform(-1.0, 1.0, size=shape).astype(dtype)
    xt = Tensor(x, requires_grad=True)
    with Tape(), np.errstate(over="ignore"):  # the backward's x**2 may overflow
        out = gelu(xt)
        backward(tsum(mul(out, Tensor(g))))
    x64, g64 = x.astype(np.float64), g.astype(np.float64)
    phi = 0.5 * (1.0 + special.erf(x64 * INV_SQRT2))
    dx = g64 * (phi + x64 * (np.exp(-0.5 * np.square(x64)) * INV_SQRT_2PI))
    assert out.dtype == xt.grad.dtype == dtype
    if dtype == np.float64:
        assert np.array_equal(out.data, x64 * phi) and np.array_equal(xt.grad, dx)
    else:
        assert np.abs(out.data - x64 * phi).max() <= 1e-6
        assert np.abs(xt.grad - dx).max() <= 1e-6


@SETTINGS
@given(case=shapes(dims=(1, 2)), half=st.integers(1, 4), mode=st.sampled_from(oracles.TAPE_MODES))
def test_glu_is_its_composite_bit_for_bit(case, half, mode):
    shape, dtype, seed = case
    rng = np.random.default_rng(seed)
    x = (4.0 * rng.normal(size=(*shape, 2 * half))).astype(dtype)
    proj = rng.normal(size=(*shape, half)).astype(dtype)
    got = oracles.taped(glu, (x,), proj, mode)
    want = oracles.taped(oracles.glu_reference, (x,), proj, mode)
    assert got[0].dtype == dtype and np.array_equal(got[0], want[0])
    if mode != "no tape":
        assert np.array_equal(got[1][0], want[1][0])


@SETTINGS
@given(case=shapes(), c=st.sampled_from([0.5, 1.0, 8.0, 12.0 ** 0.5]),
       p=st.sampled_from([0.0, 0.1]), mode=st.sampled_from(oracles.TAPE_MODES))
def test_residual_is_its_composite_bit_for_bit(case, c, p, mode):
    shape, dtype, seed = case
    rng = np.random.default_rng(seed)
    x, h, proj = (rng.normal(size=shape).astype(dtype) for _ in range(3))
    got = oracles.taped(lambda a, b: residual(a, b, c, p), (x, h), proj, mode)
    want = oracles.taped(lambda a, b: oracles.residual_reference(a, b, c, p), (x, h), proj, mode)
    assert got[0].dtype == dtype and np.array_equal(got[0], want[0])
    if mode != "no tape":
        for ours, theirs in zip(got[1], want[1]):
            assert np.array_equal(ours, theirs)


@SETTINGS
@given(case=shapes(dims=(1, 2), size=4), n=st.integers(1, 7), lo=st.integers(0, 3))
def test_layer_norm_of_a_right_part_is_the_row_formula(case, n, lo):
    shape, dtype, seed = case
    rng = np.random.default_rng(seed)
    x = (3.0 * rng.normal(size=(*shape, lo + n)) + 1.0).astype(dtype)
    gamma, beta = (rng.normal(size=n).astype(dtype) for _ in range(2))
    g = rng.normal(size=(*shape, n)).astype(dtype)
    leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
    with Tape():
        out = layer_norm(*leaves, lo=lo)
        backward(tsum(mul(out, Tensor(g))))
    x64, gamma64, beta64, g64 = (a.astype(np.float64) for a in (x, gamma, beta, g))

    def loss(xv=x64, gv=gamma64, bv=beta64):
        return (g64 * oracles.layer_norm_rows(xv[..., lo:], gv, bv)).sum()

    wants = [oracles.layer_norm_rows(x64[..., lo:], gamma64, beta64),
             oracles.complex_step_grad(lambda v: loss(xv=v), x64),
             oracles.complex_step_grad(lambda v: loss(gv=v), gamma64),
             oracles.complex_step_grad(lambda v: loss(bv=v), beta64)]
    # dx is a difference of terms as large as |g * gamma| / std, which
    # cancel to near 0 when a row's values are close: its rounding scales
    # with those terms, not with dx
    xs = x64[..., lo:]
    terms = np.abs(g64 * gamma64).max() / np.sqrt(xs.var(axis=-1).min() + 1e-12)
    for got, want, scale in zip([out.data, *(t.grad for t in leaves)], wants,
                                [1.0, terms, 1.0, 1.0]):
        assert got.dtype == dtype and got.shape == want.shape
        assert np.abs(got - want).max() <= TOL[dtype] * max(scale, np.abs(want).max())
    assert not leaves[0].grad[..., :lo].any()


@SETTINGS
@given(case=shapes(dims=(2, 2), size=7), p=st.integers(1, 4))
def test_mix_rows_is_its_loop_reference(case, p):
    (t_len, channels), dtype, seed = case
    rng = np.random.default_rng(seed)
    parts = [Tensor(rng.normal(size=(t_len, channels)).astype(dtype), requires_grad=True)
             for _ in range(p)]
    alpha = Tensor(oracles.softmax_rows(rng.normal(size=(t_len, p))).astype(dtype),
                   requires_grad=True)
    g = rng.normal(size=(t_len, channels)).astype(dtype)
    with Tape():
        out = oracles.mix_rows(parts, alpha)
        backward(tsum(mul(out, Tensor(g))))
    arrays = [v.data for v in parts]
    d_parts, d_alpha = oracles.mix_rows_grads_loops(arrays, alpha.data, g)
    pairs = [(out.data, oracles.mix_rows_loops(arrays, alpha.data)), (alpha.grad, d_alpha)]
    pairs += [(v.grad, want) for v, want in zip(parts, d_parts)]
    for got, want in pairs:
        assert got.dtype == dtype
        assert np.abs(got - want).max() <= MIX_TOL[dtype] * max(1.0, np.abs(want).max())


@SETTINGS
@given(case=shapes(dims=(1, 1), size=8), half=st.integers(1, 6))
def test_gate_is_its_composite_bit_for_bit(case, half):
    (t_len,), dtype, seed = case
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(t_len, 2 * half)).astype(dtype)
    v = rng.normal(size=(t_len, half)).astype(dtype)
    proj = rng.normal(size=(t_len, half)).astype(dtype)
    got = oracles.taped(gate, (a, v), proj, "tape")
    want = oracles.taped(lambda at, vt: mul(oracles.split_channels(at, half)[0], vt),
                         (a, v), proj, "tape")
    assert got[0].dtype == dtype and np.array_equal(got[0], want[0])
    for ours, theirs in zip(got[1], want[1]):
        assert ours.dtype == dtype and np.array_equal(ours, theirs)
    assert not got[1][0][:, half:].any()


@SETTINGS
@given(case=shapes(dims=(2, 2), size=14), cin=st.integers(1, 5), cout=st.integers(1, 6),
       x_grad=st.booleans())
def test_conv2d_down_is_its_channel_first_reference(case, cin, cout, x_grad):
    (t_in, f_in), dtype, seed = case
    rng = np.random.default_rng(seed)
    t_in, f_in = t_in + 2, f_in + 2  # at least the 3x3 kernel
    conv = Conv2dDown(cin, cout, rng).astype(dtype)
    x = rng.normal(size=(t_in, f_in, cin)).astype(dtype)
    g = rng.normal(size=(conv.out_len(t_in), conv.out_len(f_in), cout)).astype(dtype)
    ref_y, ref_dx, ref_dw, ref_db = oracles.conv2d_down_reference(
        x, conv.weight.data, conv.bias.data, g)
    xt = Tensor(x, requires_grad=x_grad)
    with Tape():
        y = conv(xt)
        backward(tsum(mul(y, Tensor(g))))
    # the channel-last gather reorders only each output's sum over the patch:
    # the forward is close (exact with one channel), the gradients exact
    assert y.dtype == dtype
    assert np.abs(y.data - ref_y).max() <= TOL_CONV2D[dtype] * np.abs(ref_y).max()
    assert cin > 1 or np.array_equal(y.data, ref_y)
    assert (xt.grad is None) == (not x_grad)
    for got, want in zip((xt.grad, conv.weight.grad, conv.bias.grad), (ref_dx, ref_dw, ref_db)):
        assert got is None or (got.dtype == dtype and np.array_equal(got, want))


@SETTINGS
@given(case=shapes(dims=(1, 1), size=24), heads=st.integers(1, 4), head_dim=st.integers(1, 4),
       p=st.sampled_from([0.0, 0.1, 0.5]), mode=st.sampled_from(oracles.TAPE_MODES))
def test_attention_is_its_composite_bit_for_bit(case, heads, head_dim, p, mode):
    (t_len,), dtype, seed = case
    rng = np.random.default_rng(seed)
    dim = heads * head_dim
    att = MultiHeadAttention(dim, heads, rng, dropout_p=p).astype(dtype)
    x0 = rng.normal(size=(t_len, dim)).astype(dtype)
    proj = Tensor(rng.normal(size=(t_len, dim)).astype(dtype))
    out, seen, gx, grads, _ = oracles.attention_pass(att, att, x0, proj, mode)
    ref_out, ref_seen, ref_gx, ref_grads, _ = oracles.attention_pass(
        att, lambda x: oracles.attention_reference(att, x), x0, proj, mode)
    pairs = [(out, ref_out), (seen, ref_seen)]
    if mode != "no tape":
        pairs += [(gx, ref_gx), *zip(grads, ref_grads)]
    for ours, theirs in pairs:
        assert ours.dtype == dtype and np.array_equal(ours, theirs)


@SETTINGS
@given(case=shapes(), p=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
       mode=st.sampled_from(oracles.TAPE_MODES))
def test_dropout_mask_is_its_loop_reference(case, p, mode):
    shape, dtype, seed = case
    if mode == "no tape":
        mask = dropout_mask(shape, dtype, p)
    else:
        with Tape(np.random.default_rng(seed) if mode == "tape with generator" else None):
            mask = dropout_mask(shape, dtype, p)
    if p == 0.0 or mode != "tape with generator":
        assert mask is None
        return
    want = oracles.dropout_mask_loops(np.random.default_rng(seed), shape, dtype, p)
    assert mask.dtype == dtype and np.array_equal(mask, want)


def test_dropout_mask_draws_from_the_innermost_generator():
    with Tape(np.random.default_rng(1)), Tape(np.random.default_rng(2)):
        mask = dropout_mask((3, 4), np.float64, 0.5)
    want = oracles.dropout_mask_loops(np.random.default_rng(2), (3, 4), np.float64, 0.5)
    assert np.array_equal(mask, want)
