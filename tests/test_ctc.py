"""CTC loss against full path enumeration, plus decoding and scoring."""

import math

import numpy as np
import pytest

import oracles
from multiconv import ctc
from multiconv.autodiff import Tape, Tensor, backward
from multiconv.ctc import (
    ctc_feasible,
    ctc_loss,
    edit_distance,
    greedy_decode,
    min_frames,
    token_error_rate,
)
from multiconv.data import Utterance
from multiconv.errors import ContractError
from multiconv.gradcheck import numeric_gradient
from multiconv.training import evaluate

RNG = np.random.default_rng(101)


def log_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def test_single_frame_single_label():
    # softmax recovers [0.4, 0.6] exactly from log-probabilities, so the
    # loss must be -ln 0.6
    logits = np.log(np.array([[0.4, 0.6]]))
    loss, ok = ctc_loss(Tensor(logits), [1])
    assert ok
    assert loss.item() == pytest.approx(-math.log(0.6), abs=1e-12)


def test_two_frames_uniform_three_paths():
    # uniform over {blank, a, b} and target "a": paths (a,-), (-,a), (a,a)
    # each carry probability 1/9, so the loss is -ln(1/3) = ln 3
    logits = np.zeros((2, 3))
    loss, ok = ctc_loss(Tensor(logits), [1])
    assert ok
    assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)


def test_empty_label_sequence_is_all_blanks():
    logits = RNG.normal(size=(4, 3))
    loss, ok = ctc_loss(Tensor(logits), [])
    assert ok
    expected = -log_softmax(logits)[:, 0].sum()
    assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_repeated_label_needs_separating_blank():
    assert min_frames([1, 1]) == 3
    assert min_frames([1, 2, 1]) == 3
    assert min_frames([2, 2, 2]) == 5
    assert ctc_feasible(3, [1, 1])
    assert not ctc_feasible(2, [1, 1])


def test_infeasible_returns_inf_without_gradient():
    logits = Tensor(RNG.normal(size=(2, 4)), requires_grad=True)
    with Tape() as tape:
        loss, ok = ctc_loss(logits, [1, 2, 3])
    assert not ok
    assert math.isinf(loss.item())
    assert len(tape) == 0


def test_label_validation():
    logits = Tensor(np.zeros((3, 4)))
    with pytest.raises(ContractError):
        ctc_loss(logits, [0])      # blank is not a label
    with pytest.raises(ContractError):
        ctc_loss(logits, [4])      # outside 1..3
    with pytest.raises(ContractError):
        ctc_loss(Tensor(np.zeros(3)), [1])
    for labels in ([], [1]):       # no frames: a shape error, not an index error or inf
        with pytest.raises(ContractError):
            ctc_loss(Tensor(np.zeros((0, 3))), labels)


def _enumerable_lattices():
    """Seeded (logits, labels) small enough for path enumeration: T 1-6,
    vocab 1-3, 0-3 labels."""
    rng = np.random.default_rng(5)
    for n_frames in (1, 2, 3, 4, 5, 6):
        for vocab in (1, 2, 3):
            for _ in range(4):
                n_labels = int(rng.integers(0, min(n_frames, 3) + 1))
                labels = [int(v) for v in rng.integers(1, vocab + 1, size=n_labels)]
                yield rng.normal(size=(n_frames, vocab + 1)) * 2, labels


def test_loss_matches_brute_force_enumeration():
    checked = 0
    for logits, labels in _enumerable_lattices():
        want = oracles.ctc_loss_brute_force(log_softmax(logits), labels)
        loss, ok = ctc_loss(Tensor(logits), labels)
        assert ok == math.isfinite(want)
        if ok:
            assert loss.item() == pytest.approx(want, abs=1e-9), (logits.shape, labels)
        checked += 1
    assert checked >= 70


def test_gradient_matches_brute_force_enumeration():
    checked = repeats = empty = 0
    for logits, labels in _enumerable_lattices():
        want = oracles.ctc_grad_brute_force(logits, labels)
        x = Tensor(logits, requires_grad=True)
        with Tape():
            loss, ok = ctc_loss(x, labels)
            assert ok == (want is not None)
            if not ok:
                continue
            backward(loss)
        np.testing.assert_allclose(x.grad, want, rtol=0, atol=1e-9, err_msg=str(labels))
        checked += 1
        repeats += any(a == b for a, b in zip(labels, labels[1:]))
        empty += not labels
    assert checked >= 50 and repeats and empty


def test_recursion_matches_the_reference_in_both_directions():
    """The -inf-padded recursion is bit-identical to the concatenate/where
    reference, forwards (alpha) and on the reversed lattice (beta)."""
    rng = np.random.default_rng(23)
    lattices = [(1, []), (1, [2]), (3, []), (4, [2, 2]), (2, [1, 1]), (1, [1, 2, 3])]
    for _ in range(300):
        vocab = int(rng.integers(1, 5))
        labels = [int(v) for v in rng.integers(1, vocab + 1, size=rng.integers(0, 9))]
        lattices.append((int(rng.integers(1, 25)), labels))
    feasible = infeasible = repeats = 0
    for n_frames, labels in lattices:
        ext = ctc._extended_states(labels)
        lp_ext = log_softmax(rng.normal(size=(n_frames, max(labels, default=0) + 1)) * 3)[:, ext]
        for lp, chain in ((lp_ext, ext), (lp_ext[::-1, ::-1], ext[::-1])):
            got = ctc._forward_vars(lp, ctc._skip_mask(chain))
            np.testing.assert_array_equal(got, oracles.ctc_forward_vars_reference(lp, chain),
                                          err_msg=f"T={n_frames} labels={labels}")
        feasible += ctc_feasible(n_frames, labels)
        infeasible += not ctc_feasible(n_frames, labels)
        repeats += any(a == b for a, b in zip(labels, labels[1:]))
    assert feasible > 100 and infeasible > 50 and repeats > 50


def _count_recursions(monkeypatch):
    calls = []
    real = ctc._forward_vars

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ctc, "_forward_vars", counting)
    return calls


def test_backward_recursion_runs_only_in_backward(monkeypatch):
    calls = _count_recursions(monkeypatch)
    logits = Tensor(np.random.default_rng(3).normal(size=(6, 4)), requires_grad=True)
    labels = [1, 3, 3]
    ctc_loss(logits, labels)
    assert len(calls) == 1
    with Tape():
        ctc_loss(logits, labels)
    assert len(calls) == 2
    with Tape():
        loss, _ = ctc_loss(logits, labels)
        backward(loss)
    assert len(calls) == 4


def test_evaluate_runs_one_recursion_per_utterance(monkeypatch):
    calls = _count_recursions(monkeypatch)
    logits = np.random.default_rng(4).normal(size=(5, 4))
    utts = [Utterance(f"u{i}", np.zeros((1, 1)), labels)
            for i, labels in enumerate(([1, 2], [3], [], [2, 2]))]
    evaluate(lambda feats: Tensor(logits), utts)
    assert len(calls) == len(utts)


def test_gradient_rows_sum_to_zero():
    # d(loss)/d(logits[t]) = softmax - occupancy; both are distributions
    logits = Tensor(RNG.normal(size=(6, 4)), requires_grad=True)
    with Tape():
        loss, _ = ctc_loss(logits, [1, 3, 3])
        backward(loss)
    assert np.allclose(logits.grad.sum(axis=1), 0.0, atol=1e-12)


def test_gradient_matches_finite_differences():
    logits0 = RNG.normal(size=(5, 4))
    labels = [2, 1, 1]

    def f(arr):
        loss, _ = ctc_loss(Tensor(arr), labels)
        return loss.item()

    logits = Tensor(logits0, requires_grad=True)
    with Tape():
        loss, _ = ctc_loss(logits, labels)
        backward(loss)
    fd = numeric_gradient(f, logits0)
    assert np.allclose(logits.grad, fd, atol=1e-7)


def test_gradient_dtype_follows_logits():
    logits = Tensor(RNG.normal(size=(5, 3)).astype(np.float32), requires_grad=True)
    with Tape():
        loss, _ = ctc_loss(logits, [1, 2])
        backward(loss)
    assert loss.dtype == np.float64  # the loss itself is a metric
    assert logits.grad.dtype == np.float32


def test_greedy_decode_collapses_and_strips():
    scores = np.array([
        [0.1, 0.9, 0.0],  # a
        [0.1, 0.8, 0.0],  # a (repeat, merged)
        [0.9, 0.0, 0.0],  # blank
        [0.0, 0.7, 0.2],  # a again (new emission after blank)
        [0.0, 0.1, 0.8],  # b
    ])
    assert greedy_decode(scores) == [1, 1, 2]
    assert greedy_decode(np.array([[1.0, 0.0]])) == []
    with pytest.raises(ContractError):
        greedy_decode(np.zeros(3))


@pytest.mark.parametrize("a,b,want", [
    ([], [], 0),
    ([1, 2, 3], [1, 2, 3], 0),
    ([1, 2, 3], [], 3),
    ([1, 2, 3], [1, 3], 1),
    ([1, 2, 3], [2, 2, 3], 1),
    ([1, 2, 3, 4], [4, 3, 2, 1], 4),
])
def test_edit_distance_known_values(a, b, want):
    assert edit_distance(a, b) == want
    assert edit_distance(b, a) == want


def test_edit_distance_matches_recursive_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = tuple(rng.integers(1, 4, size=rng.integers(0, 8)))
        b = tuple(rng.integers(1, 4, size=rng.integers(0, 8)))
        assert edit_distance(a, b) == oracles.edit_distance_recursive(a, b)


def test_token_error_rate_pools_over_utterances():
    refs = [[1, 2, 3], [4, 5]]
    hyps = [[1, 2, 3], [4]]
    assert token_error_rate(refs, hyps) == pytest.approx(1 / 5)
    with pytest.raises(ContractError):
        token_error_rate([[1]], [[1], [2]])
    with pytest.raises(ContractError):
        token_error_rate([[]], [[1]])


def test_loss_decreases_when_correct_class_gains_mass():
    base = np.zeros((4, 3))
    better = base.copy()
    better[:, 1] += 1.0
    l0, _ = ctc_loss(Tensor(base), [1])
    l1, _ = ctc_loss(Tensor(better), [1])
    assert l1.item() < l0.item()
