"""Activations, norms, projections, and convolutions against references."""

import inspect
import math

import numpy as np
import pytest
from scipy import special

import multiconv
import oracles
from multiconv.autodiff import Tape, Tensor, backward, mul, tsum
from multiconv.errors import ConfigError, ContractError, ShapeError
from multiconv.layers import (
    INV_SQRT2,
    Conv2dDown,
    DepthwiseConv1d,
    FeedForward,
    GroupedConv1d,
    LayerNorm,
    Linear,
    Module,
    Subsampler,
    depthwise_conv,
    dropout,
    gelu,
    glu,
    grouped_conv,
    observe,
    observing,
    residual,
    sinusoid_table,
    softmax,
    swish,
)
from multiconv.layers import _expit, _phi, layer_norm

RNG = np.random.default_rng(21)


# the erf-based unit: x * Phi(x) at pinned points (values from a
# high-precision normal CDF, truncated to double)
GELU_AT_ONE = 0.841344746068543
GELU_AT_MINUS_TEN = -7.61985302416053e-23


def test_gelu_pinned_values():
    x = Tensor(np.array([0.0, 1.0, -10.0]))
    y = gelu(x).data
    assert y[0] == 0.0
    assert y[1] == pytest.approx(GELU_AT_ONE, abs=1e-15)
    assert y[2] == pytest.approx(GELU_AT_MINUS_TEN, rel=1e-12)


def test_gelu_is_odd_about_half_x():
    # x*Phi(x) + (-x)*Phi(-x) = x*(Phi(x) - Phi(x)) + x... direct identity:
    # gelu(x) - gelu(-x) = x for every x, since Phi(x) + Phi(-x) = 1
    x = RNG.normal(size=64)
    diff = gelu(Tensor(x)).data - gelu(Tensor(-x)).data
    assert np.allclose(diff, x, atol=1e-14)


def test_sigmoid_and_swish_values():
    x = np.array([0.0, 2.0, -2.0])
    s = _expit(x)
    expected = 1.0 / (1.0 + np.exp(-x))
    assert np.allclose(s, expected, atol=1e-15)
    assert np.allclose(swish(Tensor(x)).data, x * expected, atol=1e-15)


def _float64_activations(x):
    """The float64 scipy formulas of Phi, expit, gelu and swish."""
    return {
        "phi": 0.5 * (1.0 + special.erf(x * INV_SQRT2)),
        "expit": special.expit(x),
        "gelu": x * (0.5 * (1.0 + special.erf(x * INV_SQRT2))),
        "swish": x * special.expit(x),
    }


def _activations(x):
    return {
        "phi": _phi(x),
        "expit": _expit(x),
        "gelu": gelu(Tensor(x)).data,
        "swish": swish(Tensor(x)).data,
    }


def test_float32_activations_are_within_1e_6_of_float64_scipy():
    grid = np.linspace(-8.0, 8.0, 1_000_001, dtype=np.float32)
    with np.errstate(all="raise"):
        fast = _activations(grid)
    exact = _float64_activations(grid.astype(np.float64))
    special_points = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=np.float32)
    with np.errstate(invalid="ignore"):  # gelu and swish at -inf are -inf * 0
        fast_special = _activations(special_points)
        exact_special = _float64_activations(special_points.astype(np.float64))
    for name, ref in exact.items():
        assert fast[name].dtype == np.float32, name
        assert np.abs(fast[name] - ref).max() <= 1e-6, name
        got = fast_special[name].astype(np.float64)
        # +-0 and +-inf map exactly (Phi to 1/2, 1 and 0), and nan in gives nan out
        assert np.array_equal(got, exact_special[name], equal_nan=True), name


def test_float64_activations_are_scipy_bit_for_bit():
    x = np.concatenate([RNG.normal(size=4096) * 4.0, [0.0, -0.0, 40.0, -40.0]])
    got = _activations(x)
    for name, ref in _float64_activations(x).items():
        assert got[name].dtype == np.float64, name
        assert np.array_equal(got[name], ref), name


def test_float32_phi_at_its_edge_points():
    # the rational runs on every x: where x**2 overflows (1e19 and up) its
    # value is garbage, but scipy's tail overwrites everything past x**2 = 12.5
    points = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 1e-40, -1e-40,
              1e19, -1e19, 1e30, -1e30, 3.4e38, -3.4e38]
    edges = np.array([2.5 * math.sqrt(2.0), -2.5 * math.sqrt(2.0), 4.0, -4.0], dtype=np.float32)
    x = np.concatenate([
        np.array(points, dtype=np.float32),
        edges, np.nextafter(edges, np.float32(np.inf)), np.nextafter(edges, np.float32(-np.inf)),
        np.linspace(-10.0, 10.0, 400_001, dtype=np.float32),
    ])
    before = x.copy()
    with np.errstate(all="raise", under="ignore"):
        got = _phi(x)
    assert got.dtype == np.float32
    assert x.tobytes() == before.tobytes()  # the caller's array is not written
    x64 = x.astype(np.float64)
    want = 0.5 * (1.0 + special.erf(x64 * INV_SQRT2))
    assert np.array_equal(got[:5], want[:5], equal_nan=True)  # +-0, +-inf, nan
    assert np.abs(got[5:] - want[5:]).max() <= 1e-6
    finite = np.isfinite(x)
    gelu32 = (x[finite] * got[finite]).astype(np.float64)
    assert np.abs(gelu32 - x64[finite] * want[finite]).max() <= 1e-6


def test_softmax_rows_sum_to_one_and_match_reference():
    z = RNG.normal(size=(5, 7)) * 3
    y = softmax(Tensor(z)).data
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(y, oracles.softmax_rows(z), atol=1e-14)


def test_softmax_shift_invariance():
    z = RNG.normal(size=(4, 5))
    shifted = softmax(Tensor(z + 100.0)).data
    assert np.allclose(shifted, softmax(Tensor(z)).data, atol=1e-12)


def test_glu_gates_first_half_by_sigmoid_of_second():
    x = RNG.normal(size=(6, 8))
    y = glu(Tensor(x)).data
    expected = x[:, :4] / (1.0 + np.exp(-x[:, 4:]))
    assert np.allclose(y, expected, atol=1e-14)
    with pytest.raises(ShapeError):
        glu(Tensor(np.ones((2, 5))))


# c: the encoder's weights 0.5 and 1, and sqrt(dim) at dim 64 and at dim 12;
# only sqrt(12) is no power of two, so only it shows the order of the products
@pytest.mark.parametrize("mode", oracles.TAPE_MODES)
@pytest.mark.parametrize("p", [0.0, 0.1])
@pytest.mark.parametrize("c", [0.5, 1.0, 8.0, math.sqrt(12.0)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_residual_matches_the_composite_reference_bit_for_bit(dtype, c, p, mode):
    rng = np.random.default_rng(5)
    x0, h0, proj = (rng.normal(size=(7, 6)).astype(dtype) for _ in range(3))
    kept = x0.copy()
    out, grads, nodes = oracles.taped(lambda x, h: residual(x, h, c, p), (x0, h0), proj, mode)
    ref_out, ref_grads, ref_nodes = oracles.taped(
        lambda x, h: oracles.residual_reference(x, h, c, p), (x0, h0), proj, mode)
    assert np.array_equal(x0, kept)  # x's array is read, never written
    assert out.dtype == dtype and np.array_equal(out, ref_out)
    with pytest.raises(ShapeError):
        residual(Tensor(x0), Tensor(h0[:, :5]), c, p)
    if mode == "no tape":
        assert grads is None
        return
    # the reference scales unless c is 1, and its dropout is a node only
    # when it draws a mask
    drops = mode == "tape with generator" and p > 0.0
    assert (nodes, ref_nodes) == (1, 1 + (c != 1.0) + drops)
    for g, ref in zip(grads, ref_grads):
        assert g.dtype == dtype and np.array_equal(g, ref)
    if drops:
        assert not np.array_equal(out, oracles.taped(
            lambda x, h: residual(x, h, c, p), (x0, h0), proj, "tape")[0])


@pytest.mark.parametrize("mode", oracles.TAPE_MODES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_glu_matches_the_composite_reference_bit_for_bit(dtype, mode):
    rng = np.random.default_rng(6)
    x0 = (4.0 * rng.normal(size=(7, 8))).astype(dtype)
    proj = rng.normal(size=(7, 4)).astype(dtype)
    out, grads, nodes = oracles.taped(glu, (x0,), proj, mode)
    ref_out, ref_grads, ref_nodes = oracles.taped(oracles.glu_reference, (x0,), proj, mode)
    assert out.dtype == dtype and np.array_equal(out, ref_out)
    if mode == "no tape":
        assert grads is None
        return
    assert (nodes, ref_nodes) == (1, 4)
    assert grads[0].dtype == dtype and np.array_equal(grads[0], ref_grads[0])


def test_dropout_identity_without_rng_or_p():
    x = Tensor(RNG.normal(size=(4, 4)))
    with Tape(np.random.default_rng(0)):
        assert dropout(x, 0.0) is x
    assert dropout(x, 0.5) is x  # no tape
    with Tape():
        assert dropout(x, 0.5) is x  # a tape without a generator
    with pytest.raises(ConfigError):
        with Tape(np.random.default_rng(0)):
            dropout(x, 1.0)


def test_dropout_is_inverted_and_masks():
    x = Tensor(np.ones((200, 50), dtype=np.float32))
    with Tape(np.random.default_rng(3)):
        y = dropout(x, 0.25)
    kept = y.data != 0
    assert y.dtype == np.float32
    assert np.allclose(y.data[kept], 1.0 / 0.75)
    assert abs(kept.mean() - 0.75) < 0.02
    x64 = Tensor(np.ones((50, 40)), requires_grad=True)
    with Tape(np.random.default_rng(4)):
        y = dropout(x64, 0.5)
        backward(tsum(y))
    assert np.array_equal(x64.grad, (y.data != 0) * 2.0)


def test_plain_tape_inside_a_training_tape_draws_nothing():
    # a layer re-run on its own tape in the middle of a training pass must
    # leave the training generator where it was
    rng = np.random.default_rng(5)
    x = Tensor(np.ones((6, 4)), requires_grad=True)
    with Tape(rng):
        before = rng.bit_generator.state
        with Tape():
            assert dropout(x, 0.5) is x
        assert rng.bit_generator.state == before
        assert dropout(x, 0.5) is not x
    assert rng.bit_generator.state != before


def test_observing_nests_and_restores_the_outer_observer():
    a, b = object(), object()
    observe(a, np.zeros(1))  # nothing open: recorded nowhere
    with observing() as outer:
        observe(a, np.ones(2))
        with observing() as inner:
            observe(b, np.full(3, 2.0))
        observe(a, np.full(2, 3.0))
    observe(b, np.zeros(1))
    assert list(inner) == [b] and len(inner[b]) == 1
    assert list(outer) == [a]
    assert [m.tolist() for m in outer[a]] == [[1.0, 1.0], [3.0, 3.0]]


def test_observe_records_a_copy():
    arr = np.zeros(3)
    with observing() as seen:
        observe("m", arr)
    arr[:] = 1.0
    assert seen["m"][0].tolist() == [0.0, 0.0, 0.0]


def _module_classes(cls=Module):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("multiconv."):
            yield sub
        yield from _module_classes(sub)


def test_every_module_is_called_on_one_tensor():
    classes = sorted(set(_module_classes()), key=lambda c: c.__qualname__)
    assert {c.__name__ for c in classes} >= {
        "CtcModel", "Encoder", "EncoderLayer", "FeedForward", "MultiHeadAttention",
        "Mcsgu", "MultiConvBlock", "CsguBlock", "ConformerConvBlock"}
    for cls in classes:
        params = list(inspect.signature(cls.__call__).parameters.values())
        assert len(params) == 2, f"{cls.__qualname__}.__call__{inspect.signature(cls.__call__)}"
        assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert params[1].default is inspect.Parameter.empty
    assert not hasattr(multiconv, "EncoderCaptures")


def test_linear_matches_numpy_affine():
    lin = Linear(5, 3, np.random.default_rng(0))
    x = RNG.normal(size=(7, 5))
    assert np.allclose(lin(Tensor(x)).data, x @ lin.weight.data + lin.bias.data,
                       atol=1e-14)


def test_astype_casts_parameters_in_place():
    lin = Linear(5, 3, np.random.default_rng(0))
    weight = lin.weight
    drawn = weight.data.copy()
    assert drawn.dtype == np.float64  # modules are built in float64
    assert lin.astype(np.float32) is lin
    assert lin.weight is weight
    assert all(p.dtype == np.float32 for p in lin.parameters())
    assert np.array_equal(weight.data, drawn.astype(np.float32))
    with pytest.raises(ContractError):
        lin.astype(np.int64)


def test_layer_norm_normalizes_then_scales():
    norm = LayerNorm(6)
    x = RNG.normal(size=(9, 6)) * 4 + 2
    y = norm(Tensor(x)).data
    assert np.allclose(y.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(y.var(axis=1), 1.0, atol=1e-4)  # eps-shifted variance
    norm.gamma.data[:] = 3.0
    norm.beta.data[:] = -1.0
    y2 = norm(Tensor(x)).data
    assert np.allclose(y2, 3.0 * y - 1.0, atol=1e-12)
    with pytest.raises(ShapeError):
        norm(Tensor(np.ones((2, 5))))


@pytest.mark.parametrize("lead", [(20,), (2, 5)])
@pytest.mark.parametrize("lo", [0, 3])
@pytest.mark.parametrize("n", [7, 64, 96, 192, 384])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_means_are_mean_bit_for_bit(dtype, n, lo, lead):
    # layer_norm takes its means as sum / n, without .mean's Python overhead
    rng = np.random.default_rng(n + lo)
    x = (4.0 * rng.normal(size=(*lead, lo + n)) + 2.0).astype(dtype)
    gamma, beta = (rng.normal(size=n).astype(dtype) for _ in range(2))
    ones, zeros = np.ones(n, dtype=dtype), np.zeros(n, dtype=dtype)
    for g, b in ((gamma, beta), (ones, zeros)):  # the second gives xhat itself
        got = layer_norm(Tensor(x), Tensor(g), Tensor(b), lo=lo).data
        assert got.dtype == dtype
        assert np.array_equal(got, oracles.layer_norm_by_mean(x, g, b, lo))


@pytest.mark.parametrize("kernel", [1, 3, 7])
def test_depthwise_conv_matches_loop_oracle(kernel):
    conv = DepthwiseConv1d(5, kernel, np.random.default_rng(2))
    x = RNG.normal(size=(11, 5))
    expected = oracles.depthwise_conv_loops(x, conv.weight.data, conv.bias.data)
    assert np.allclose(conv(Tensor(x)).data, expected, atol=1e-12)


def test_depthwise_rejects_even_kernel_and_bad_shapes():
    with pytest.raises(ConfigError):
        DepthwiseConv1d(4, 2, np.random.default_rng(0))
    conv = DepthwiseConv1d(4, 3, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        conv(Tensor(np.ones((5, 3), dtype=np.float32)))


@pytest.mark.parametrize("cin,cout,groups,kernel", [
    (8, 8, 4, 3),
    (8, 4, 4, 5),
    (6, 6, 2, 1),
    (6, 6, 6, 3),   # depthwise as a special case of grouping
    (4, 8, 2, 3),   # more outputs than inputs
])
def test_grouped_conv_matches_loop_oracle(cin, cout, groups, kernel):
    conv = GroupedConv1d(cin, cout, kernel, groups, np.random.default_rng(5))
    x = RNG.normal(size=(9, cin))
    expected = oracles.grouped_conv_loops(x, conv.weight.data, conv.bias.data, groups)
    assert np.allclose(conv(Tensor(x)).data, expected, atol=1e-12)


@pytest.mark.parametrize("t_len", [1, 4, 13])
@pytest.mark.parametrize("groups,opg,ipg,kernel", [
    (3, 4, 4, 7),   # a folded concat kernel: P=4 branches per group
    (2, 1, 3, 5),
    (4, 2, 1, 1),
    (1, 3, 2, 9),   # kernel wider than some inputs
])
def test_grouped_conv_op_and_gradients_match_loop_oracles(t_len, groups, opg, ipg, kernel):
    x = RNG.normal(size=(t_len, groups * ipg))
    w = RNG.normal(size=(groups, opg, ipg, kernel))
    g = RNG.normal(size=(t_len, groups * opg))
    b = RNG.normal(size=groups * opg)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    bt = Tensor(b, requires_grad=True)
    with Tape():
        y = grouped_conv(xt, [wt], [bt])
        backward(tsum(mul(y, Tensor(g))))
    assert np.allclose(y.data, oracles.grouped_conv_loops(x, w, b, groups), atol=1e-12)
    dx, dw = oracles.grouped_conv_grads_loops(x, w, g, groups)
    assert np.allclose(xt.grad, dx, atol=1e-12)
    assert np.allclose(wt.grad, dw, atol=1e-12)
    assert np.allclose(bt.grad, g.sum(axis=0), atol=1e-12)


@pytest.mark.parametrize("t_len,kernel", [(1, 3), (4, 7), (13, 5)])
def test_depthwise_conv_op_gradients_match_grouped_oracle(t_len, kernel):
    # a depthwise conv is a grouped one with one lane in and out per group
    c = 3
    x = RNG.normal(size=(t_len, c))
    w = RNG.normal(size=(c, kernel))
    g = RNG.normal(size=(t_len, c))
    b = RNG.normal(size=c)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    bt = Tensor(b, requires_grad=True)
    with Tape():
        y = depthwise_conv(xt, [wt], [bt])
        backward(tsum(mul(y, Tensor(g))))
    assert np.allclose(y.data, oracles.depthwise_conv_loops(x, w, b), atol=1e-12)
    dx, dw = oracles.grouped_conv_grads_loops(x, w.reshape(c, 1, 1, kernel), g, c)
    assert np.allclose(xt.grad, dx, atol=1e-12)
    assert np.allclose(wt.grad, dw.reshape(c, kernel), atol=1e-12)
    assert np.allclose(bt.grad, g.sum(axis=0), atol=1e-12)


@pytest.mark.parametrize("make", [
    lambda rng: Linear(6, 4, rng),
    lambda rng: DepthwiseConv1d(6, 3, rng),
    lambda rng: GroupedConv1d(6, 4, 3, 2, rng),
], ids=["linear", "depthwise", "grouped"])
def test_each_layer_records_one_node_that_adds_its_bias(make):
    layer = make(np.random.default_rng(9))
    x = Tensor(RNG.normal(size=(7, 6)), requires_grad=True)
    with Tape() as tape:
        y = layer(x)
        assert len(tape) == 1
    g = RNG.normal(size=y.shape)
    with Tape():
        backward(tsum(mul(layer(x), Tensor(g))))
    assert np.array_equal(layer.bias.grad, g.sum(axis=0))


def test_grouped_conv_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        GroupedConv1d(6, 6, 4, 2, rng)  # even kernel
    with pytest.raises(ConfigError):
        GroupedConv1d(6, 6, 3, 4, rng)  # groups must divide channels
    with pytest.raises(ConfigError):
        GroupedConv1d(6, 4, 3, 3, rng)  # and the output channels


def test_conv2d_matches_loop_oracle():
    conv = Conv2dDown(2, 3, np.random.default_rng(8))
    x = RNG.normal(size=(9, 11, 2))
    expected = oracles.conv2d_stride2_loops(x, conv.weight.data, conv.bias.data)
    got = conv(Tensor(x)).data
    assert got.shape == (4, 5, 3)
    assert np.allclose(got, expected, atol=1e-12)
    with pytest.raises(ShapeError):
        conv(Tensor(np.ones((2, 5, 2))))  # fewer rows than the kernel


@pytest.mark.parametrize("dtype,fwd_rtol", [(np.float32, 1e-6), (np.float64, 1e-14)])
@pytest.mark.parametrize("t_in,f_in,cin", [(9, 11, 1), (10, 12, 1), (80, 21, 1),
                                           (9, 12, 5), (12, 9, 5), (39, 39, 64), (40, 10, 64)])
def test_conv2d_channel_last_matches_the_channel_first_reference(dtype, fwd_rtol, t_in, f_in,
                                                                 cin):
    # the channel-last gather only reorders the sum of each output over K, so
    # dx, dW and db are bit-identical to the [C, k, k] layout, and so is the
    # forward when C = 1
    rng = np.random.default_rng(t_in * f_in + cin)
    conv = Conv2dDown(cin, 6, rng).astype(dtype)
    x = rng.normal(size=(t_in, f_in, cin)).astype(dtype)
    g = rng.normal(size=(conv.out_len(t_in), conv.out_len(f_in), 6)).astype(dtype)
    ref_y, ref_dx, ref_dw, ref_db = oracles.conv2d_down_reference(
        x, conv.weight.data, conv.bias.data, g)
    grads = {}
    for needs_dx in (True, False):
        conv.zero_grad()
        xt = Tensor(x, requires_grad=needs_dx)
        with Tape() as tape:
            y = conv(xt)
            dx_rule = tape._nodes[-1].backward(g)[0]
            backward(tsum(mul(y, Tensor(g))))
        assert y.dtype == dtype and (dx_rule is None) == (not needs_dx)
        grads[needs_dx] = (xt.grad, conv.weight.grad, conv.bias.grad)
    assert np.max(np.abs(y.data - ref_y)) <= fwd_rtol * np.max(np.abs(ref_y))
    if cin == 1:
        assert np.array_equal(y.data, ref_y)
    for got, want in zip(grads[True], (ref_dx, ref_dw, ref_db)):
        assert got.dtype == dtype and np.array_equal(got, want)
    assert grads[False][0] is None  # the rule computed no dx above
    assert np.array_equal(grads[False][1], ref_dw) and np.array_equal(grads[False][2], ref_db)


@pytest.mark.parametrize("length,expected", [(7, 1), (8, 1), (11, 2), (16, 3),
                                             (50, 11), (100, 24)])
def test_subsampler_length_formula(length, expected):
    sub = Subsampler(80, 8, np.random.default_rng(1)).astype(np.float32)
    assert sub.out_len(length) == expected
    out = sub(Tensor(RNG.normal(size=(length, 80)).astype(np.float32)))
    assert out.shape == (expected, 8)
    assert out.dtype == np.float32


def test_subsampler_rejects_short_input():
    sub = Subsampler(80, 8, np.random.default_rng(1))
    with pytest.raises(ShapeError):
        sub(Tensor(np.ones((6, 80), dtype=np.float32)))
    with pytest.raises(ShapeError):
        sub(Tensor(np.ones((20, 40), dtype=np.float32)))


def test_sinusoid_table_values():
    table = sinusoid_table(50, 8)
    assert np.allclose(table[0, 0::2], 0.0)
    assert np.allclose(table[0, 1::2], 1.0)
    # column pair i oscillates at frequency 10000^(-2i/d)
    for t in (1, 7, 31):
        for i in range(4):
            freq = 10000.0 ** (-2 * i / 8)
            assert table[t, 2 * i] == pytest.approx(math.sin(t * freq), abs=1e-12)
            assert table[t, 2 * i + 1] == pytest.approx(math.cos(t * freq), abs=1e-12)
    with pytest.raises(ConfigError):
        sinusoid_table(10, 7)


def test_feed_forward_shapes_and_activation_choice():
    # the activation is swish: down(up(x) * sigmoid(up(x)))
    ffn = FeedForward(6, 24, np.random.default_rng(0))
    x = RNG.normal(size=(5, 6))
    out = ffn(Tensor(x))
    assert out.shape == (5, 6)
    h = x @ ffn.up.weight.data + ffn.up.bias.data
    h = h / (1.0 + np.exp(-h))
    assert np.allclose(out.data, h @ ffn.down.weight.data + ffn.down.bias.data, atol=1e-12)


def test_module_named_parameters_traversal():
    class Outer(Module):
        def __init__(self):
            rng = np.random.default_rng(0)
            self.lin = Linear(2, 3, rng)
            self.stack = [LayerNorm(3), LayerNorm(3)]
            self.loose = Tensor(np.zeros(4), requires_grad=True)
            self.plain = Tensor(np.zeros(9))  # untracked: no grad

    outer = Outer()
    names = [n for n, _ in outer.named_parameters()]
    assert names == ["lin.weight", "lin.bias", "stack.0.gamma", "stack.0.beta",
                     "stack.1.gamma", "stack.1.beta", "loose"]
    assert outer.param_count() == 2 * 3 + 3 + 4 * 3 + 4


def test_float32_flows_through_every_layer():
    rng = np.random.default_rng(0)
    x = Tensor(RNG.normal(size=(9, 6)).astype(np.float32), requires_grad=True)
    stages = [
        Linear(6, 6, rng).astype(np.float32),
        LayerNorm(6).astype(np.float32),
        DepthwiseConv1d(6, 3, rng).astype(np.float32),
        GroupedConv1d(6, 6, 3, 2, rng).astype(np.float32),
    ]
    with Tape():
        y = x
        for stage in stages:
            y = stage(y)
        y = gelu(swish(y))
        backward(tsum(y))
    assert y.dtype == np.float32
    assert x.grad.dtype == np.float32
    for stage in stages:
        for p in stage.parameters():
            assert p.grad.dtype == np.float32
