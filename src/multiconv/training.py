"""CTC training harness: Adam, gradient clipping, batching, evaluation.

Utterances vary in length, so a "batch" is a list of per-utterance forward
passes whose loss gradients are accumulated into the shared parameters and
averaged by scaling each loss by 1/batch_size. Accumulation order inside a
batch is fixed, which keeps whole runs bit-reproducible for a given seed.

Metrics are appended to ``metrics.jsonl`` at every evaluation point. All
fields except ``wall_seconds`` are deterministic functions of the seed,
the data, and the configs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tape, Tensor, backward, scale
from .checkpoint import save_model
from .config import TrainConfig
from .ctc import ctc_loss, edit_distance, greedy_decode, token_error_rate
from .data import Utterance
from .errors import ContractError, IntegrityError

__all__ = [
    "Adam",
    "EvalResult",
    "TrainResult",
    "clip_gradients",
    "evaluate",
    "global_grad_norm",
    "train_model",
]


class Adam(object):
    """Adam with bias correction; parameters with no gradient are skipped."""

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.98, eps: float = 1e-9):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            m = self.m[i]
            v = self.v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= self.lr * update


def global_grad_norm(params) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.square(p.grad.astype(np.float64)).sum())
    return math.sqrt(total)


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their joint norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    norm = global_grad_norm(params)
    if norm > max_norm:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm


@dataclass
class EvalResult:
    ter: float
    loss: float
    n_utterances: int
    n_infeasible: int
    per_utt: list[tuple[str, int, int]] = field(default_factory=list)

    def per_utt_csv(self) -> str:
        lines = ["uid,ref_len,edit_distance"]
        lines += [f"{uid},{n},{dist}" for uid, n, dist in self.per_utt]
        return "\n".join(lines) + "\n"


@dataclass
class TrainResult:
    steps_run: int
    final_dev_ter: float
    best_dev_ter: float
    best_step: int
    stopped_early: bool
    n_infeasible: int
    wall_seconds: float
    metrics: list[dict] = field(default_factory=list)


def evaluate(model, utts: list[Utterance]) -> EvalResult:
    """Greedy-decoding token error rate and mean loss, without recording."""
    if not utts:
        raise ContractError("evaluate needs at least one utterance")
    refs, hyps = [], []
    per_utt = []
    loss_sum = 0.0
    n_loss = 0
    n_infeasible = 0
    for utt in utts:
        logits = model(Tensor(utt.feats))
        hyp = greedy_decode(logits.data)
        hyps.append(hyp)
        refs.append(utt.tokens)
        per_utt.append((utt.uid, len(utt.tokens), edit_distance(utt.tokens, hyp)))
        loss, ok = ctc_loss(logits, utt.tokens)
        if ok:
            loss_sum += loss.item()
            n_loss += 1
        else:
            n_infeasible += 1
    mean_loss = loss_sum / n_loss if n_loss else float("inf")
    return EvalResult(
        ter=token_error_rate(refs, hyps),
        loss=mean_loss,
        n_utterances=len(utts),
        n_infeasible=n_infeasible,
        per_utt=per_utt,
    )


def _batches(n: int, batch_size: int, steps: int, rng: np.random.Generator):
    """Yield ``steps`` index batches, reshuffling each pass over the data."""
    emitted = 0
    while emitted < steps:
        order = rng.permutation(n)
        for lo in range(0, n - batch_size + 1, batch_size):
            if emitted == steps:
                return
            yield order[lo:lo + batch_size]
            emitted += 1


def train_model(model, train_utts: list[Utterance], dev_utts: list[Utterance],
                tcfg: TrainConfig, out_dir=None, log=None) -> TrainResult:
    """Run CTC training, evaluating every ``eval_every`` steps.

    Stops early once the dev token error rate reaches ``target_ter`` (when
    set). With ``out_dir`` given, appends ``metrics.jsonl`` rows and keeps
    the best-dev checkpoint at ``model.mckpt``: the snapshot is rewritten
    whenever an evaluation strictly improves on the best dev TER so far, so
    the file on disk never corresponds to a worse model than any earlier one.

    Utterances too short for their label sequence are skipped; the skip
    count is reported on the result. A non-finite training loss aborts the
    run with the offending step and utterance named.
    """
    tcfg.validate()
    if len(train_utts) < tcfg.batch_size:
        raise ContractError(
            f"batch size {tcfg.batch_size} exceeds the {len(train_utts)} training utterances")
    root_ss = np.random.SeedSequence(tcfg.seed)
    shuffle_ss, dropout_ss = root_ss.spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    dropout_rng = np.random.default_rng(dropout_ss)

    opt = Adam(model.parameters(), lr=tcfg.lr, beta1=tcfg.beta1,
               beta2=tcfg.beta2, eps=tcfg.eps)
    inv_batch = 1.0 / tcfg.batch_size
    metrics_path = Path(out_dir) / "metrics.jsonl" if out_dir is not None else None
    if metrics_path is not None:
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text("")

    started = time.perf_counter()
    metrics: list[dict] = []
    loss_accum = 0.0
    loss_count = 0
    grad_norm = 0.0
    stopped_early = False
    final_ter = math.inf
    best_ter = math.inf
    best_step = 0
    steps_run = 0
    n_infeasible = 0

    def log_eval(step: int) -> EvalResult:
        nonlocal loss_accum, loss_count, best_ter, best_step
        result = evaluate(model, dev_utts)
        row = {
            "step": step,
            "train_loss": loss_accum / loss_count if loss_count else None,
            "grad_norm": grad_norm,
            "dev_loss": result.loss,
            "dev_ter": result.ter,
            "wall_seconds": time.perf_counter() - started,
        }
        metrics.append(row)
        if metrics_path is not None:
            with open(metrics_path, "a") as fh:
                fh.write(json.dumps(row) + "\n")
        if result.ter < best_ter:
            best_ter = result.ter
            best_step = step
            if out_dir is not None:
                save_model(Path(out_dir) / "model.mckpt", model)
        if log is not None:
            shown = "n/a" if row["train_loss"] is None else f"{row['train_loss']:.4f}"
            log(f"step {step:5d}  train_loss {shown}  "
                f"dev_loss {result.loss:.4f}  dev_ter {result.ter:.4f}")
        loss_accum = 0.0
        loss_count = 0
        return result

    for batch in _batches(len(train_utts), tcfg.batch_size, tcfg.steps, shuffle_rng):
        steps_run += 1
        model.zero_grad()
        for idx in batch:
            utt = train_utts[idx]
            tape = Tape(dropout_rng)
            with tape:
                logits = model(Tensor(utt.feats))
                loss, feasible = ctc_loss(logits, utt.tokens)
                if not feasible:
                    n_infeasible += 1
                    tape.reset()  # no backward will free this pass's graph
                    continue
                if not math.isfinite(loss.item()):
                    raise IntegrityError(
                        f"non-finite loss at step {steps_run}, utterance {utt.uid}")
                backward(scale(loss, inv_batch))
            loss_accum += loss.item()
            loss_count += 1
        grad_norm = clip_gradients(opt.params, tcfg.clip_norm)
        opt.step()
        if steps_run % tcfg.eval_every == 0:
            result = log_eval(steps_run)
            final_ter = result.ter
            target = tcfg.early_stop_ter
            if target is not None and result.ter <= target:
                stopped_early = True
                break

    if not stopped_early and steps_run % tcfg.eval_every:
        final_ter = log_eval(steps_run).ter

    return TrainResult(
        steps_run=steps_run,
        final_dev_ter=final_ter,
        best_dev_ter=best_ter,
        best_step=best_step,
        stopped_early=stopped_early,
        n_infeasible=n_infeasible,
        wall_seconds=time.perf_counter() - started,
        metrics=metrics,
    )
