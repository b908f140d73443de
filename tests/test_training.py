"""Optimizer math, gradient clipping, evaluation, and the training loop."""

import dataclasses
import json
import math

import numpy as np
import pytest

from multiconv.autodiff import Tensor
from multiconv.checkpoint import load_model, save_model
from multiconv.cli import main
from multiconv.config import DataSpec, EncoderConfig, TrainConfig
from multiconv.data import generate_dataset, load_split
from multiconv.encoder import build_model
from multiconv.errors import ContractError, IntegrityError
from multiconv.training import (
    Adam,
    clip_gradients,
    evaluate,
    global_grad_norm,
    train_model,
)

RNG = np.random.default_rng(31)


def with_grad(data, grad):
    t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
    t.grad = np.asarray(grad, dtype=np.float64)
    return t


# --- Adam -------------------------------------------------------------------

def test_first_step_is_signed_lr():
    # with eps=0 the first update is exactly lr * sign(grad): bias correction
    # cancels the (1-beta) factors and v-hat is the squared gradient
    p = with_grad([1.0, -3.0], [2.0, -8.0])
    opt = Adam([p], lr=0.1, beta1=0.5, beta2=0.5, eps=0.0)
    opt.step()
    assert np.array_equal(p.data, np.array([1.0 - 0.1, -3.0 + 0.1]))


def test_two_steps_match_textbook_formula():
    lr, b1, b2, eps = 0.01, 0.9, 0.98, 1e-9
    p0 = RNG.normal(size=(3, 2))
    grads = [RNG.normal(size=(3, 2)), RNG.normal(size=(3, 2))]

    p = Tensor(p0.copy(), requires_grad=True)
    opt = Adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps)

    ref, m, v = p0.copy(), 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        p.grad = g.copy()
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    assert np.allclose(p.data, ref, atol=1e-15)


def test_params_without_gradients_are_skipped():
    p = with_grad([1.0], [4.0])
    q = Tensor(np.array([5.0]), requires_grad=True)  # grad stays None
    opt = Adam([p, q], lr=0.1, eps=0.0)
    opt.step()
    assert q.data[0] == 5.0
    assert np.all(opt.m[1] == 0.0) and np.all(opt.v[1] == 0.0)
    assert p.data[0] != 1.0


def test_moments_persist_across_steps():
    p = with_grad([0.0], [1.0])
    opt = Adam([p], lr=0.0)  # lr 0: only the moments move
    opt.step()
    m1 = opt.m[0].copy()
    p.grad = np.array([1.0])
    opt.step()
    assert opt.t == 2
    assert opt.m[0][0] > m1[0]


# --- clipping ---------------------------------------------------------------

def test_norm_sums_over_all_parameters():
    a = with_grad([3.0], [3.0])
    b = with_grad([[1.0, 1.0]], [[4.0, 0.0]])
    c = Tensor(np.array([9.0]), requires_grad=True)  # no grad: ignored
    assert global_grad_norm([a, b, c]) == pytest.approx(5.0, abs=1e-15)


def test_clip_rescales_to_max_norm():
    a = with_grad([0.0], [3.0])
    b = with_grad([0.0], [4.0])
    pre = clip_gradients([a, b], max_norm=1.0)
    assert pre == pytest.approx(5.0)
    assert global_grad_norm([a, b]) == pytest.approx(1.0, abs=1e-12)
    assert a.grad[0] == pytest.approx(0.6)


def test_clip_leaves_small_gradients_alone():
    a = with_grad([0.0], [0.3])
    g_before = a.grad.copy()
    pre = clip_gradients([a], max_norm=1.0)
    assert pre == pytest.approx(0.3)
    assert np.array_equal(a.grad, g_before)


# --- evaluation -------------------------------------------------------------

class _FixedModel:
    """Stand-in that emits the same logit sequence for every input."""

    def __init__(self, logits):
        self.logits = np.asarray(logits, dtype=np.float64)

    def __call__(self, feats):
        return Tensor(self.logits.copy())


class _Utt:
    def __init__(self, tokens):
        self.uid = "u"
        self.feats = np.zeros((4, 3), dtype=np.float32)
        self.tokens = tokens


def test_evaluate_scores_perfect_decoder_at_zero():
    # rows argmax to 1, blank, 2: greedy decode gives [1, 2]
    logits = [[0, 5, 0], [5, 0, 0], [0, 0, 5]]
    result = evaluate(_FixedModel(logits), [_Utt([1, 2]), _Utt([1, 2])])
    assert result.ter == 0.0
    assert result.n_utterances == 2
    assert result.n_infeasible == 0
    assert math.isfinite(result.loss)


def test_evaluate_counts_errors_and_infeasible():
    logits = [[0, 5, 0], [5, 0, 0], [0, 0, 5]]  # always decodes [1, 2]
    utts = [_Utt([1, 2]), _Utt([2, 2]), _Utt([1, 1, 1, 1])]  # last needs 7 frames
    result = evaluate(_FixedModel(logits), utts)
    # ref lengths pool to 8; edits are 0, 1 (one sub), 3 (one sub, two dels)
    assert result.ter == pytest.approx(4 / 8)
    assert result.n_infeasible == 1


def test_evaluate_requires_utterances():
    with pytest.raises(ContractError):
        evaluate(_FixedModel([[0.0, 1.0]]), [])


# --- the training loop ------------------------------------------------------

SPEC = DataSpec(vocab=3, n_train=8, n_dev=4, n_test=2, min_tokens=2, max_tokens=3,
                frames_per_token=6, n_mels=7, noise_std=0.1, seed=5)
ECFG = EncoderConfig(dim=12, layers=1, heads=2, d_inter=16, d_ffn=20,
                     conv_block="multiconv", fusion="weighted",
                     kernels=(3, 5), n_mels=7, vocab=3, dropout=0.0)


def small_run(tmp_path, seed=0, steps=6, out_dir=None, **cfg_over):
    data_dir = tmp_path / "data"
    if not data_dir.exists():
        generate_dataset(SPEC, data_dir)
    train = load_split(data_dir, "train")
    dev = load_split(data_dir, "dev")
    model = build_model(dataclasses.replace(ECFG, seed=seed))
    targs = dict(seed=seed, steps=steps, batch_size=4, lr=2e-3, eval_every=3)
    targs.update(cfg_over)
    result = train_model(model, train, dev, TrainConfig(**targs), out_dir=out_dir)
    return model, result, (train, dev)


def test_training_runs_budget_and_logs(tmp_path):
    model, result, _ = small_run(tmp_path, out_dir=tmp_path / "run")
    assert result.steps_run == 6
    assert not result.stopped_early
    assert len(result.metrics) == 2  # evals at steps 3 and 6
    assert [m["step"] for m in result.metrics] == [3, 6]
    lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(l) for l in lines] == result.metrics
    for row in result.metrics:
        assert set(row) == {"step", "train_loss", "grad_norm", "dev_loss",
                            "dev_ter", "wall_seconds"}


def test_training_is_bit_reproducible(tmp_path):
    m1, r1, _ = small_run(tmp_path, out_dir=tmp_path / "a")
    m2, r2, _ = small_run(tmp_path, out_dir=tmp_path / "b")
    for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data), n1
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_seconds"}
                          for r in rows]
    assert strip(r1.metrics) == strip(r2.metrics)


def test_different_seed_changes_the_run(tmp_path):
    m1, r1, _ = small_run(tmp_path, seed=0)
    m2, r2, _ = small_run(tmp_path, seed=1)
    diffs = sum(not np.array_equal(p1.data, p2.data)
                for (_, p1), (_, p2) in zip(m1.named_parameters(), m2.named_parameters()))
    assert diffs > 0


def test_loss_goes_down_with_training(tmp_path):
    model, result, (train, dev) = small_run(tmp_path, steps=30)
    first, last = result.metrics[0], result.metrics[-1]
    assert last["dev_loss"] < first["dev_loss"]
    assert last["train_loss"] < first["train_loss"]


def test_early_stop_fires_at_reachable_target(tmp_path):
    # any decode satisfies a huge target, so the first eval must stop the run
    model, result, _ = small_run(tmp_path, steps=60, target_ter=50.0)
    assert result.stopped_early
    assert result.steps_run == 3
    assert len(result.metrics) == 1


def test_target_met_only_at_the_last_partial_window_does_not_stop_early(tmp_path):
    # the run ends at step 2 before any eval_every step: its one eval comes
    # after the last step, and only an eval_every step counts as an early stop
    model, result, _ = small_run(tmp_path, steps=2, eval_every=5, target_ter=50.0)
    assert not result.stopped_early
    assert result.steps_run == 2
    assert [m["step"] for m in result.metrics] == [2]


def test_target_met_at_an_eval_every_step_that_is_the_last_stops_early(tmp_path):
    model, result, _ = small_run(tmp_path, steps=3, target_ter=50.0)
    assert result.stopped_early
    assert result.steps_run == 3
    assert [m["step"] for m in result.metrics] == [3]


def test_final_eval_runs_for_partial_window(tmp_path):
    model, result, _ = small_run(tmp_path, steps=4)
    assert result.steps_run == 4
    assert [m["step"] for m in result.metrics] == [3, 4]
    assert result.final_dev_ter == result.metrics[-1]["dev_ter"]


def test_batch_size_larger_than_corpus_rejected(tmp_path):
    with pytest.raises(ContractError):
        small_run(tmp_path, batch_size=100)


def test_empty_dev_list_rejected_before_any_step(tmp_path):
    data_dir = tmp_path / "data"
    generate_dataset(SPEC, data_dir)
    model = build_model(dataclasses.replace(ECFG, seed=0))
    before = [p.data.copy() for p in model.parameters()]
    out = tmp_path / "run"
    with pytest.raises(ContractError, match="dev utterance"):
        train_model(model, load_split(data_dir, "train"), [],
                    TrainConfig(steps=4, batch_size=4, eval_every=2), out_dir=out)
    assert all(np.array_equal(p.data, b) for p, b in zip(model.parameters(), before))
    assert not out.exists()


def test_python_run_directory_loads_with_the_cli(tmp_path, capsys):
    model, result, _ = small_run(tmp_path, steps=3, out_dir=tmp_path / "run")
    names = {"encoder.json", "train.json", "environment.json", "metrics.jsonl", "model.mckpt"}
    assert {p.name for p in (tmp_path / "run").iterdir()} == names
    assert EncoderConfig.load(tmp_path / "run" / "encoder.json") == model.cfg
    assert TrainConfig.load(tmp_path / "run" / "train.json").steps == 3
    assert main(["eval", "--data", str(tmp_path / "data"), "--model", str(tmp_path / "run")]) == 0
    assert "utterances=4" in capsys.readouterr().out


def test_zero_lr_freezes_parameters(tmp_path):
    # checkpoint bytes before and after training must agree exactly
    model, result, _ = small_run(tmp_path, lr=0.0, steps=7)
    fresh = build_model(dataclasses.replace(ECFG, seed=0))
    save_model(tmp_path / "trained.mckpt", model)
    save_model(tmp_path / "fresh.mckpt", fresh)
    assert (tmp_path / "trained.mckpt").read_bytes() == (tmp_path / "fresh.mckpt").read_bytes()
    assert result.steps_run == 7


def test_best_dev_checkpoint_is_retained(tmp_path):
    out = tmp_path / "run"
    model, result, (train, dev) = small_run(tmp_path, steps=30, out_dir=out)
    assert result.best_dev_ter == min(m["dev_ter"] for m in result.metrics)
    assert result.best_step in {m["step"] for m in result.metrics}
    assert result.best_dev_ter <= result.final_dev_ter
    # the on-disk snapshot is the model from the best evaluation, not the last
    restored = build_model(dataclasses.replace(ECFG, seed=99))
    load_model(out / "model.mckpt", restored)
    assert evaluate(restored, dev).ter == result.best_dev_ter


def test_non_finite_loss_aborts_with_diagnostics(tmp_path):
    data_dir = tmp_path / "data"
    generate_dataset(SPEC, data_dir)
    train = load_split(data_dir, "train")
    dev = load_split(data_dir, "dev")
    model = build_model(dataclasses.replace(ECFG, seed=0))
    model.head.weight.data.fill(np.nan)
    # the NaN logits are supposed to flow through the loss untouched
    with np.errstate(invalid="ignore"):
        with pytest.raises(IntegrityError, match=r"step 1, utterance train-"):
            train_model(model, train, dev, TrainConfig(steps=2, batch_size=4))


def test_untrained_model_scores_badly(tmp_path):
    # random decoding on a 3-token vocabulary: nowhere near the references
    data_dir = tmp_path / "data"
    generate_dataset(SPEC, data_dir)
    dev = load_split(data_dir, "dev")
    model = build_model(dataclasses.replace(ECFG, seed=3))
    assert evaluate(model, dev).ter > 0.5
