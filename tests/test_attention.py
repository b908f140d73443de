"""Multi-head self-attention behavior."""

import math

import numpy as np
import pytest

import oracles
from multiconv.attention import MultiHeadAttention
from multiconv.autodiff import Tensor
from multiconv.errors import ConfigError, ShapeError
from multiconv.layers import observing

RNG = np.random.default_rng(33)

# with identity projections and x = I_2, the score matrix is I/sqrt(2); the
# diagonal softmax weight is e^(1/sqrt(2)) / (e^(1/sqrt(2)) + 1)
DIAG_WEIGHT_2D = 0.6697615493266569


def _identity_projections(att: MultiHeadAttention) -> None:
    eye = np.eye(att.dim)
    for proj in (att.q_proj, att.k_proj, att.v_proj, att.out_proj):
        proj.weight.data = eye.copy()
        proj.bias.data[:] = 0.0


def test_two_frame_hand_example():
    att = MultiHeadAttention(2, 1, np.random.default_rng(0))
    _identity_projections(att)
    x = np.eye(2)
    with observing() as seen:
        out = att(Tensor(x))
    w = seen[att][0][0]
    assert w[0, 0] == pytest.approx(DIAG_WEIGHT_2D, abs=1e-15)
    assert w[1, 1] == pytest.approx(DIAG_WEIGHT_2D, abs=1e-15)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-15)
    # context is the weight matrix itself because v = I
    assert np.allclose(out.data, w, atol=1e-15)


def test_weights_match_reference_softmax():
    att = MultiHeadAttention(8, 2, np.random.default_rng(1))
    x = RNG.normal(size=(6, 8))
    with observing() as seen:
        att(Tensor(x))
    maps = seen[att]
    q = x @ att.q_proj.weight.data + att.q_proj.bias.data
    k = x @ att.k_proj.weight.data + att.k_proj.bias.data
    for head in range(2):
        qh = q[:, head * 4:(head + 1) * 4]
        kh = k[:, head * 4:(head + 1) * 4]
        scores = qh @ kh.T / math.sqrt(4)
        assert np.allclose(maps[0][head], oracles.softmax_rows(scores),
                           atol=1e-12)


def test_capture_shape_and_row_stochastic():
    att = MultiHeadAttention(6, 3, np.random.default_rng(2))
    with observing() as seen:
        out = att(Tensor(RNG.normal(size=(5, 6))))
    maps = seen[att]
    assert out.shape == (5, 6)
    assert len(maps) == 1
    assert maps[0].shape == (3, 5, 5)
    assert np.allclose(maps[0].sum(axis=2), 1.0, atol=1e-12)
    assert (maps[0] >= 0).all()


def test_single_frame_attends_to_itself():
    att = MultiHeadAttention(4, 2, np.random.default_rng(3))
    with observing() as seen:
        att(Tensor(RNG.normal(size=(1, 4))))
    assert np.array_equal(seen[att][0], np.ones((2, 1, 1)))


def test_permutation_equivariance():
    # bare self-attention has no positional signal: permuting the frames
    # permutes the output rows the same way
    att = MultiHeadAttention(6, 2, np.random.default_rng(4))
    x = RNG.normal(size=(7, 6))
    perm = np.random.default_rng(5).permutation(7)
    direct = att(Tensor(x[perm])).data
    permuted = att(Tensor(x)).data[perm]
    assert np.allclose(direct, permuted, atol=1e-12)


def test_validation():
    with pytest.raises(ConfigError):
        MultiHeadAttention(6, 4, np.random.default_rng(0))
    for heads in (0, -2):
        with pytest.raises(ConfigError, match="heads"):
            MultiHeadAttention(6, heads, np.random.default_rng(0))
    att = MultiHeadAttention(6, 2, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        att(Tensor(np.ones((3, 4), dtype=np.float32)))


def test_float32_output():
    att = MultiHeadAttention(8, 2, np.random.default_rng(6)).astype(np.float32)
    out = att(Tensor(RNG.normal(size=(4, 8)).astype(np.float32)))
    assert out.dtype == np.float32


@pytest.mark.parametrize("mode", ["no tape", "tape", "tape with generator"])
@pytest.mark.parametrize("t", [1, 2, 19])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_node_matches_the_composite_reference_bit_for_bit(dtype, heads, t, mode):
    att = MultiHeadAttention(8, heads, np.random.default_rng(heads), dropout_p=0.1).astype(dtype)
    rng = np.random.default_rng(t)
    x0 = rng.normal(size=(t, 8)).astype(dtype)
    proj = Tensor(rng.normal(size=(t, 8)).astype(dtype))
    out, seen, gx, grads, nodes = oracles.attention_pass(att, att, x0, proj, mode)
    ref_out, ref_seen, ref_gx, ref_grads, ref_nodes = oracles.attention_pass(
        att, lambda x: oracles.attention_reference(att, x), x0, proj, mode)
    assert out.dtype == dtype
    assert np.array_equal(out, ref_out)
    assert np.array_equal(seen, ref_seen)
    if mode == "no tape":
        assert gx is None and nodes is None
        return
    # the reference's dropout is a node only when it draws a mask
    assert (nodes, ref_nodes) == (5, 18 if mode == "tape with generator" else 17)
    assert gx.dtype == dtype and np.array_equal(gx, ref_gx)
    assert len(grads) == 8
    for g, ref in zip(grads, ref_grads):
        assert g.dtype == dtype and np.array_equal(g, ref)
    if mode == "tape with generator":
        # the mask scales every kept weight by 1 / 0.9, so dropout moved the output
        assert not np.array_equal(out, oracles.attention_pass(att, att, x0, proj, "tape")[0])
