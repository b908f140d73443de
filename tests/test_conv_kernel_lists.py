"""The two conv ops' kernel-list forms on drawn shapes.

Each op is checked bit for bit against the composite of fold, conv and
reorder nodes it replaced (``oracles.depthwise_composite`` and
``oracles.grouped_composite``), and for closeness against the loop
definitions of the fusions: the sum, or the concatenation, of the branch
convolutions. The draws are derandomised, so every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from multiconv.autodiff import Tape, Tensor, backward, mul, tsum
from multiconv.layers import depthwise_conv, grouped_conv

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)
TOL = {np.float32: 1e-5, np.float64: 1e-12}


@st.composite
def kernel_lists(draw):
    """(widths, T, dtype, x requires grad, seed): 1 to 4 odd, increasing
    widths up to 15, and T of 1, below the widest or above it."""
    p = draw(st.integers(1, 4))
    halves = sorted(draw(st.sets(st.integers(0, 7), min_size=p, max_size=p)))
    widths = tuple(2 * h + 1 for h in halves)
    k_max = widths[-1]
    length = draw(st.sampled_from(["long", "short", "one"]))
    if length == "one":
        t_len = 1
    elif length == "short":
        t_len = draw(st.integers(1, max(1, k_max - 1)))
    else:
        t_len = draw(st.integers(k_max + 1, k_max + 8))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return widths, t_len, dtype, draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


def _run(op, x, weights, biases, g, x_grad):
    """Output, x's gradient (None when x takes none), each kernel's and each
    bias's gradient and the node count of ``op`` under sum(g * out)."""
    xt = Tensor(x, requires_grad=x_grad)
    ws = [Tensor(w, requires_grad=True) for w in weights]
    bs = [Tensor(b, requires_grad=True) for b in biases]
    with Tape() as tape:
        out = op(xt, ws, bs)
        nodes = len(tape)
        backward(tsum(mul(out, Tensor(g))))
    return [out.data, xt.grad, *(w.grad for w in ws), *(b.grad for b in bs)], nodes


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
