"""Tape mechanics and the core differentiable ops."""

import gc
import threading
import weakref

import numpy as np
import pytest

from multiconv.autodiff import (
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
from multiconv.errors import ContractError, ShapeError, StateError
from multiconv.layers import depthwise_conv, grouped_conv, layer_norm

RNG = np.random.default_rng(7)


def test_tensor_defaults_and_item():
    t = Tensor([[1.0, 2.0]])
    assert t.shape == (1, 2)
    assert t.dtype == np.float64
    assert not t.requires_grad
    assert Tensor(3.5).item() == 3.5
    with pytest.raises(ContractError):
        t.item()


def test_int_input_promoted_to_float():
    t = Tensor([1, 2, 3])
    assert t.dtype == np.float64


def test_forward_values_match_numpy():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4, 2))
    assert np.array_equal(matmul(Tensor(a), Tensor(b)).data, a @ b)
    c = RNG.normal(size=(3, 4))
    assert np.array_equal(add(Tensor(a), Tensor(c)).data, a + c)
    assert np.array_equal(mul(Tensor(a), Tensor(c)).data, a * c)
    assert np.array_equal(scale(Tensor(a), -2.0).data, -2.0 * a)
    assert tsum(Tensor(a)).item() == pytest.approx(a.sum())


def test_matmul_hand_gradient():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]), requires_grad=True)
    with Tape():
        backward(tsum(matmul(a, b)))
    # d(sum(ab))/da[i,k] = sum_j b[k,j]; rows of b sum to 11 and 15
    assert np.array_equal(a.grad, np.array([[11.0, 15.0], [11.0, 15.0]]))
    # d/db[k,j] = sum_i a[i,k]; columns of a sum to 4 and 6
    assert np.array_equal(b.grad, np.array([[4.0, 4.0], [6.0, 6.0]]))


def test_same_tensor_used_twice_accumulates():
    x = Tensor(np.array([1.0, 2.0, 3.0]).reshape(3, 1), requires_grad=True)
    with Tape():
        y = add(mul(x, x), x)  # x^2 + x elementwise
        backward(tsum(y))
    assert np.allclose(x.grad, 2.0 * x.data + 1.0)


def test_add_duplicate_input_does_not_alias():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape():
        backward(tsum(add(x, x)))
    assert np.array_equal(x.grad, 2.0 * np.ones((2, 2)))


def test_add_of_many_parts_is_one_node():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = Tensor(np.full((2, 2), 3.0), requires_grad=True)
    with Tape() as tape:
        total = add(x, y, x)
        assert len(tape) == 1
        backward(tsum(total))
    assert np.array_equal(total.data, np.full((2, 2), 5.0))
    assert np.array_equal(x.grad, np.full((2, 2), 2.0))
    assert np.array_equal(y.grad, np.ones((2, 2)))
    with pytest.raises(ContractError):
        add()


def test_gradients_accumulate_across_tapes():
    w = Tensor(np.ones((2, 1)), requires_grad=True)
    for _ in range(3):
        tape = Tape()
        with tape:
            backward(tsum(mul(w, w)))
    assert np.array_equal(w.grad, 3 * 2.0 * np.ones((2, 1)))
    w.zero_grad()
    assert w.grad is None


def test_no_tape_means_no_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    y = scale(x, 2.0)
    assert y.tape is None
    with pytest.raises(StateError):
        backward(tsum(y))


def test_constant_graph_not_recorded():
    tape = Tape()
    with tape:
        scale(add(Tensor(np.ones(2)), Tensor(np.ones(2))), 3.0)
    assert len(tape) == 0


def test_backward_frees_the_graph_without_a_cyclic_collection():
    # every recorded tensor points at its tape and the tape at its nodes;
    # backward must break that cycle, so plain reference counting frees an
    # intermediate activation once the caller drops its own references
    x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        tape = Tape()
        with tape:
            hidden = mul(x, x)
            loss = tsum(scale(hidden, 3.0))
        freed = weakref.ref(hidden.data)
        backward(loss)
        assert len(tape) == 0
        with pytest.raises(StateError):
            backward(loss)
        del hidden, loss
        assert freed() is None
    finally:
        if was_enabled:
            gc.enable()
    assert np.allclose(x.grad, 6.0 * x.data)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape():
        y = scale(x, 1.0)
        with pytest.raises(ContractError):
            backward(y)


def test_tape_is_one_shot_until_reset():
    x = Tensor(np.ones(2), requires_grad=True)
    tape = Tape()
    with tape:
        loss = tsum(scale(x, 2.0))
        backward(loss)
        with pytest.raises(StateError):
            backward(loss)
    tape.reset()
    assert len(tape) == 0
    x.zero_grad()
    with tape:
        backward(tsum(scale(x, 2.0)))
    assert np.array_equal(x.grad, np.full(2, 2.0))


def test_nested_tapes_record_to_innermost():
    x = Tensor(np.ones(2), requires_grad=True)
    outer = Tape()
    inner = Tape()
    with outer:
        with inner:
            y = scale(x, 3.0)
        z = scale(x, 5.0)
    assert y.tape is inner and len(inner) == 1
    assert z.tape is outer and len(outer) == 1


def test_tapes_are_thread_local():
    seen = {}

    def worker():
        seen["active"] = Tape.active()

    with Tape():
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert Tape.active() is not None
    assert seen["active"] is None


def test_backward_accumulation_order_is_reproducible():
    def run():
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(8, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8)).astype(np.float32), requires_grad=True)
        with Tape():
            h = matmul(x, w)
            h = add(h, matmul(x, w))
            backward(tsum(mul(h, h)))
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


def test_float32_is_preserved():
    x = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
    y = scale(add(x, x), 0.5)
    z = matmul(y, y)
    assert z.dtype == np.float32
    with Tape():
        backward(tsum(matmul(x, x)))
    assert x.grad.dtype == np.float32


def test_matmul_bias_sums_leading_axes():
    x = Tensor(RNG.normal(size=(6, 4)))
    eye = Tensor(np.eye(4))
    b = Tensor(np.zeros(4), requires_grad=True)
    with Tape():
        backward(tsum(matmul(x, eye, b)))
    assert np.array_equal(b.grad, np.full(4, 6.0))


def test_reshape_grad_restores_layout():
    x = Tensor(RNG.normal(size=(6, 2)), requires_grad=True)
    coeff = Tensor(RNG.normal(size=(3, 4)))
    with Tape():
        backward(tsum(mul(reshape(x, (3, 4)), coeff)))
    assert np.array_equal(x.grad, coeff.data.reshape(6, 2))


def _ones(*shape: int) -> Tensor:
    return Tensor(np.ones(shape))


@pytest.mark.parametrize("build", [
    lambda: add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))),
    lambda: mul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))),
    lambda: matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2)))),
    lambda: matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 3, 2)))),
    lambda: matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2)))),
    lambda: matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))), Tensor(np.ones(4))),
    lambda: add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))),
    lambda: reshape(Tensor(np.ones((2, 3))), (7,)),
    lambda: matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))), Tensor(np.ones((2, 3)))),
    lambda: depthwise_conv(_ones(5, 3), [_ones(3, 3)], [_ones(4)]),
    # every further bias is checked, not just the first
    lambda: depthwise_conv(_ones(5, 3), [_ones(3, 1), _ones(3, 3), _ones(3, 5)],
                           [_ones(3), _ones(3), _ones(4)]),
    # the width normalized is the width past lo, not the full width
    lambda: layer_norm(Tensor(np.ones((5, 6))), Tensor(np.ones(6)), Tensor(np.zeros(6)), lo=2),
    lambda: layer_norm(Tensor(np.ones((5, 6))), Tensor(np.ones(3)), Tensor(np.zeros(3)), lo=2),
    lambda: grouped_conv(_ones(5, 4), [_ones(2, 1, 2, 3)], [_ones(4)]),
    # matmul multiplies matrices only, even over equal batch extents
    lambda: matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((2, 3, 2)))),
    # the conv ops check their own operands: x is [T, C], a kernel is not
    # broadcast over the channels, its width is odd, and each kernel of a
    # list has its own bias
    lambda: depthwise_conv(_ones(5, 4), [_ones(1, 3)], [_ones(4)]),
    lambda: depthwise_conv(_ones(5, 4), [_ones(4, 2)], [_ones(4)]),
    lambda: depthwise_conv(_ones(5, 4), [_ones(4, 3), _ones(4, 4)], [_ones(4), _ones(4)]),
    lambda: depthwise_conv(_ones(2, 5, 4), [_ones(4, 3)], [_ones(4)]),
    lambda: depthwise_conv(_ones(5, 3), [_ones(3, 1), _ones(3, 3)], [_ones(3)]),
    # the kernel's groups read all of x's channels; stacked kernels share
    # their group, output and input extents
    lambda: grouped_conv(_ones(5, 6), [_ones(2, 1, 2, 3)], [_ones(2)]),
    lambda: grouped_conv(_ones(5, 4), [_ones(2, 1, 2, 4)], [_ones(2)]),
    lambda: grouped_conv(_ones(5, 4), [_ones(2, 2, 3)], [_ones(2)]),
    lambda: grouped_conv(_ones(5, 1, 4), [_ones(2, 1, 2, 3)], [_ones(2)]),
    lambda: grouped_conv(_ones(5, 4), [_ones(2, 1, 2, 3), _ones(2, 2, 2, 5)],
                         [_ones(2), _ones(4)]),
    lambda: grouped_conv(_ones(5, 4), [_ones(2, 1, 2, 3), _ones(2, 1, 2, 6)],
                         [_ones(2), _ones(2)]),
    lambda: grouped_conv(_ones(5, 4), [_ones(2, 1, 2, 3)], []),
])
def test_shape_errors(build):
    with pytest.raises(ShapeError):
        build()
