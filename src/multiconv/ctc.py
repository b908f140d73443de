"""Connectionist temporal classification: loss, gradient, decoding, scoring.

The loss sums over every frame alignment of the labels with the forward
recursion on the blank-extended chain ``blank, y1, blank, ..., blank``; its
backward rule runs the backward recursion and builds the analytic gradient
(softmax minus state occupancy). Both are one branch-free recursion: -inf
padding is the chain's edge and an additive 0/-inf mask the skip rule. It
runs in log-space float64; the gradient is cast back to the logit dtype.

Class 0 is the blank everywhere; real tokens are 1..vocab.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor, record
from .errors import ContractError

NEG_INF = float("-inf")


def _extended_states(labels: Sequence[int]) -> np.ndarray:
    ext = np.zeros(2 * len(labels) + 1, dtype=np.int64)
    ext[1::2] = labels
    return ext


def _skip_mask(ext: np.ndarray) -> np.ndarray:
    """The skip rule as an additive row: 0 where s-2 -> s exists (state s is
    a label unlike the one at s-2), -inf where it does not."""
    mask = np.full(ext.shape[0], NEG_INF)
    mask[2:][(ext[2:] != 0) & (ext[2:] != ext[:-2])] = 0.0
    return mask


def _forward_vars(lp_ext: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Log-space forward variables over a chain lattice with emission
    log-probs lp_ext[T, S]: entry [t, s] sums every path that starts in state
    0 or 1 and is in state s at frame t, frame t's emission included. A path
    moves to s from s, s-1, or from s-2 plus the additive ``skip[s]``. Rows
    live in a [T, S+2] buffer whose two leading -inf columns are the missing
    predecessors of states 0 and 1; logaddexp(x, -inf) is exactly x."""
    n_frames, n_states = lp_ext.shape
    alpha = np.full((n_frames, n_states + 2), NEG_INF)
    alpha[0, 2:4] = lp_ext[0, :2]
    for t in range(1, n_frames):
        prev, row = alpha[t - 1], alpha[t, 2:]
        np.logaddexp(prev[2:], prev[1:-1], out=row)
        np.logaddexp(row, prev[:-2] + skip, out=row)
        row += lp_ext[t]
    return alpha[:, 2:]


def min_frames(labels: Sequence[int]) -> int:
    """Fewest frames that can realize the label sequence under CTC rules."""
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


def ctc_feasible(n_frames: int, labels: Sequence[int]) -> bool:
    return n_frames >= min_frames(labels)


def _check_labels(labels: Sequence[int], vocab: int) -> list[int]:
    out = []
    for y in labels:
        y = int(y)
        if not 1 <= y <= vocab:
            raise ContractError(f"label {y} outside 1..{vocab} (0 is the blank)")
        out.append(y)
    return out


def _log_softmax64(logits: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64)
    z -= z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def ctc_loss(logits: Tensor, labels: Sequence[int]) -> tuple[Tensor, bool]:
    """Negative log-likelihood of ``labels`` under per-frame logits [T, vocab+1].

    Returns ``(loss, feasible)``. When the sequence cannot fit in the
    available frames the loss is +inf, carries no gradient, and ``feasible``
    is False; callers should drop such samples rather than step on them.
    Beta and the gradient are built in the backward rule, only if it runs.
    """
    if logits.ndim != 2 or logits.shape[0] < 1 or logits.shape[1] < 2:
        raise ContractError(f"ctc_loss needs logits [T, vocab+1] with T >= 1, got {logits.shape}")
    n_frames, n_classes = logits.shape
    labels = _check_labels(labels, n_classes - 1)
    if not ctc_feasible(n_frames, labels):
        return Tensor(np.float64(np.inf)), False

    ext = _extended_states(labels)
    lp = _log_softmax64(logits.data)
    lp_ext = lp[:, ext]  # [T, S] emission log-probs per chain state

    alpha = _forward_vars(lp_ext, _skip_mask(ext))
    # a complete path ends in the final blank or in the last label
    log_like = np.logaddexp.reduce(alpha[-1, -2:])
    if log_like == NEG_INF:
        # unreachable for feasible inputs with finite logits, but stay safe
        return Tensor(np.float64(np.inf)), False

    def bwd(g):
        # The backward variables are the forward ones of the lattice with frames
        # and states reversed; the reversed chain is that of the reversed labels.
        beta = _forward_vars(lp_ext[::-1, ::-1], _skip_mask(ext[::-1]))[::-1, ::-1]
        # state occupancy; alpha and beta both include the frame-t emission
        with np.errstate(invalid="ignore"):
            gamma = np.exp(alpha + beta - lp_ext - log_like)
        gamma[~np.isfinite(gamma)] = 0.0
        occupancy = np.zeros(lp.shape)
        np.add.at(occupancy, (slice(None), ext), gamma)
        return (((np.exp(lp) - occupancy) * g).astype(logits.data.dtype),)

    return record(Tensor(np.float64(-log_like)), (logits,), bwd), True


def greedy_decode(logits: np.ndarray) -> list[int]:
    """Best-path decoding: per-frame argmax, collapse repeats, strip blanks."""
    if logits.ndim != 2:
        raise ContractError(f"greedy_decode needs [T, vocab+1] scores, got {logits.shape}")
    best = logits.argmax(axis=-1)
    out: list[int] = []
    prev = 0
    for cls in best:
        if cls != prev and cls != 0:
            out.append(int(cls))
        prev = cls
    return out


def edit_distance(ref: Sequence[int], hyp: Sequence[int]) -> int:
    """Levenshtein distance (unit insert/delete/substitute costs)."""
    if len(ref) < len(hyp):
        ref, hyp = hyp, ref
    previous = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        current = [i]
        for j, h in enumerate(hyp, start=1):
            current.append(min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (r != h),
            ))
        previous = current
    return previous[-1]


def pooled_error_rate(errors: int, ref_tokens: int) -> float:
    """Edits over reference tokens, each summed over the utterances."""
    if ref_tokens == 0:
        raise ContractError("token error rate undefined for empty references")
    return errors / ref_tokens


def token_error_rate(refs: Sequence[Sequence[int]], hyps: Sequence[Sequence[int]]) -> float:
    """Total edit distance over total reference length, as a fraction."""
    if len(refs) != len(hyps):
        raise ContractError(f"got {len(refs)} references but {len(hyps)} hypotheses")
    return pooled_error_rate(sum(edit_distance(r, h) for r, h in zip(refs, hyps)),
                             sum(len(r) for r in refs))
