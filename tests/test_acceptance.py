"""Acceptance gate: nine end-to-end checks covering the gradient suite,
block reduction identities, the CTC oracle, parameter accounting, toy-scale
convergence, attention and gate diagnostics, and bit-level reproducibility.

Each check prints one PASS/FAIL line with its measured numbers, bypassing
capture so the gate is visible in any pytest run. Thresholds are pinned in
the assertions; a red line here means the property genuinely failed.
"""

import csv
import dataclasses
import io
import json
import math
import time

import numpy as np
import pytest

import oracles
from multiconv.analysis import (
    attention_diagonality,
    diagonality_by_layer_head,
    fusion_comparison,
    importance_csv,
    kernel_importance,
)
from multiconv.autodiff import Tape, Tensor, backward
from multiconv.checkpoint import load_arrays, load_model, save_arrays
from multiconv.config import DataSpec, EncoderConfig, TrainConfig
from multiconv.conv_blocks import FusionKind, Mcsgu, fusion_param_count
from multiconv.ctc import ctc_loss
from multiconv.data import generate_dataset, load_split
from multiconv.encoder import build_model
from multiconv.gradcheck import numeric_gradient, run_suite
from multiconv.training import train_model

TOY_KERNELS = (3, 7, 11, 15)


def say(capsys, num, name, passed, detail):
    with capsys.disabled():
        print(f"\n[acceptance {num}] {name}: {'PASS' if passed else 'FAIL'}  ({detail})")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def toy_cfg(conv_block, fusion):
    return EncoderConfig(dim=64, layers=2, heads=4, d_inter=384, d_ffn=0,
                         conv_block=conv_block, fusion=fusion,
                         kernels=TOY_KERNELS, n_mels=80, vocab=8)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-data")
    t0 = time.perf_counter()
    generate_dataset(DataSpec(), root)  # vocab 8, 2000 train / 200 dev / 200 test
    gen_seconds = time.perf_counter() - t0
    return load_split(root, "train"), load_split(root, "dev"), gen_seconds


@pytest.fixture(scope="module")
def toy_runs(corpus):
    """Six trained toy models: the four fusion rules plus both baselines."""
    train, dev, gen_seconds = corpus
    recipes = [
        ("depth", "multiconv", "depth"),
        ("sum", "multiconv", "sum"),
        ("weighted", "multiconv", "weighted"),
        ("concat", "multiconv", "concat"),
        ("csgu", "csgu", "depth"),
        ("conformer", "conformer", "depth"),
    ]
    runs = {}
    total_seconds = gen_seconds
    for name, block, fusion in recipes:
        model = build_model(dataclasses.replace(toy_cfg(block, fusion), seed=0))
        # stop at half the loosest threshold so passes carry real margin
        tcfg = TrainConfig(seed=0, steps=2000, batch_size=16, lr=1e-3,
                           eval_every=50, target_ter=0.05)
        result = train_model(model, train, dev, tcfg)
        runs[name] = (model, result)
        total_seconds += result.wall_seconds
    return runs, total_seconds


def test_criterion_1_gradient_suite(capsys):
    results, elapsed = run_suite(seed=0)
    worst = max(r.max_rel_err for r in results)
    n_failed = sum(not r.passed for r in results)
    passed = (len(results) >= 100 and n_failed == 0
              and worst < 1e-4 and elapsed < 300.0)
    say(capsys, 1, "gradient suite", passed,
        f"{len(results)} cases, {n_failed} failed, worst rel err {worst:.2e}, "
        f"{elapsed:.1f}s")


def test_criterion_2_single_kernel_reduction(capsys):
    rng = np.random.default_rng(2)
    worst = 0.0
    for kernel in (3, 7, 15, 31):
        n_frames = int(rng.integers(2, 17))
        multi = Mcsgu(48, (kernel,), FusionKind.SUM, np.random.default_rng(5))
        multi.norm.gamma.data = rng.normal(size=24)
        multi.norm.beta.data = rng.normal(size=24)
        a = rng.normal(size=(n_frames, 48))
        want = oracles.csgu_loops(a, multi.norm.gamma.data, multi.norm.beta.data,
                                  multi.branches[0].weight.data,
                                  multi.branches[0].bias.data)
        diff = float(np.abs(multi(Tensor(a)).data - want).max())
        worst = max(worst, diff)
    say(capsys, 2, "single-kernel reduction", worst < 1e-12,
        f"k in (3,7,15,31), random T <= 16, worst abs diff {worst:.2e}")


def test_criterion_3_fusion_identities(capsys):
    rng = np.random.default_rng(3)
    kernels = TOY_KERNELS
    p = len(kernels)

    # (a) the gate projection starts at zero, so the weighted mixture is the
    # uniform one: weighted output == sum output / P
    weighted = Mcsgu(48, kernels, FusionKind.WEIGHTED, np.random.default_rng(31))
    summed = Mcsgu(48, kernels, FusionKind.SUM, np.random.default_rng(31))
    for ours, theirs in zip(weighted.branches, summed.branches):
        assert np.array_equal(ours.weight.data, theirs.weight.data)
    a = rng.normal(size=(10, 48))
    diff_a = float(np.abs(weighted(Tensor(a)).data
                          - summed(Tensor(a)).data / p).max())

    # (b) a delta final kernel makes the trailing depthwise conv the
    # identity, collapsing depth fusion onto concat bitwise
    depth = Mcsgu(48, kernels, FusionKind.DEPTH, np.random.default_rng(32))
    concat = Mcsgu(48, kernels, FusionKind.CONCAT, np.random.default_rng(32))
    depth.final_conv.weight.data[:] = 0.0
    depth.final_conv.weight.data[:, depth.final_conv.kernel // 2] = 1.0
    depth.final_conv.bias.data[:] = 0.0
    b = rng.normal(size=(9, 48))
    exact_b = bool(np.array_equal(depth(Tensor(b)).data, concat(Tensor(b)).data))

    # (c) concat-style kernels own disjoint channel blocks: zeroing branch i
    # zeroes exactly its block and leaves every other column bit-identical
    provenance_ok = True
    for n_kernels in (2, 4):
        ks = kernels[:n_kernels]
        for fusion in (FusionKind.CONCAT, FusionKind.DEPTH):
            unit = Mcsgu(48, ks, fusion, np.random.default_rng(33))
            if unit.final_conv is not None:
                unit.final_conv.bias.data[:] = 0.0
            x = rng.normal(size=(8, 48))
            base = unit(Tensor(x)).data
            width = unit.half // n_kernels
            for i, branch in enumerate(unit.branches):
                w_saved = branch.weight.data.copy()
                b_saved = branch.bias.data.copy()
                branch.weight.data[:] = 0.0
                branch.bias.data[:] = 0.0
                out = unit(Tensor(x)).data
                branch.weight.data = w_saved
                branch.bias.data = b_saved
                block = slice(i * width, (i + 1) * width)
                others = np.ones(unit.half, dtype=bool)
                others[block] = False
                if not (np.all(out[:, block] == 0.0)
                        and np.array_equal(out[:, others], base[:, others])):
                    provenance_ok = False

    passed = diff_a < 1e-12 and exact_b and provenance_ok
    say(capsys, 3, "fusion identities", passed,
        f"weighted-vs-sum/P diff {diff_a:.2e}, delta-kernel exact {exact_b}, "
        f"provenance P in (2,4) {provenance_ok}")


def test_criterion_4_ctc_oracle(capsys):
    rng = np.random.default_rng(4)

    def log_softmax(z):
        z = z - z.max(axis=-1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    n_lattices = 0
    n_feasible = 0
    worst = 0.0
    agree = True
    for n_frames in range(1, 7):
        for vocab in range(1, 5):
            for _ in range(10):
                n_labels = int(rng.integers(0, 4))
                labels = [int(v) for v in rng.integers(1, vocab + 1, size=n_labels)]
                logits = rng.normal(size=(n_frames, vocab + 1)) * 2.0
                want = oracles.ctc_loss_brute_force(log_softmax(logits), labels)
                loss, ok = ctc_loss(Tensor(logits), labels)
                n_lattices += 1
                if ok != math.isfinite(want):
                    agree = False
                elif ok:
                    n_feasible += 1
                    worst = max(worst, abs(loss.item() - want))

    grad_worst = 0.0
    for _ in range(3):
        labels = [int(v) for v in rng.integers(1, 4, size=3)]
        base = rng.normal(size=(5, 4))

        def f(arr, labels=labels):
            loss, _ = ctc_loss(Tensor(arr), labels)
            return loss.item()

        logits = Tensor(base.copy(), requires_grad=True)
        with Tape():
            loss, _ = ctc_loss(logits, labels)
            backward(loss)
        grad_worst = max(grad_worst, float(
            np.abs(logits.grad - numeric_gradient(f, base)).max()))

    passed = (n_lattices >= 200 and agree and worst < 1e-9 and grad_worst < 1e-7)
    say(capsys, 4, "ctc against path enumeration", passed,
        f"{n_lattices} lattices ({n_feasible} feasible), worst loss diff "
        f"{worst:.2e}, worst grad diff {grad_worst:.2e}")


def test_criterion_5_parameter_accounting(capsys):
    cfg = EncoderConfig(dim=256, layers=12, heads=4, d_inter=1536,
                        conv_block="multiconv", kernels=(7, 15, 23, 31),
                        n_mels=80, vocab=8)
    totals = {row["fusion"]: row["total"] for row in fusion_comparison(cfg)}
    measured_ws = totals["weighted"] - totals["sum"]
    measured_dc = totals["depth"] - totals["concat"]
    formula_ws = cfg.layers * (
        fusion_param_count(FusionKind.WEIGHTED, cfg.inter_width, cfg.kernels)
        - fusion_param_count(FusionKind.SUM, cfg.inter_width, cfg.kernels))
    formula_dc = cfg.layers * (
        fusion_param_count(FusionKind.DEPTH, cfg.inter_width, cfg.kernels)
        - fusion_param_count(FusionKind.CONCAT, cfg.inter_width, cfg.kernels))
    ordered = totals["concat"] <= totals["sum"] < totals["weighted"] < totals["depth"]
    passed = (measured_ws == formula_ws == 36912
              and measured_dc == formula_dc == 294912 and ordered)
    say(capsys, 5, "parameter accounting", passed,
        f"weighted-sum {measured_ws:,}, depth-concat {measured_dc:,}, "
        f"totals {totals['concat']:,} <= {totals['sum']:,} < "
        f"{totals['weighted']:,} < {totals['depth']:,}")


def test_criterion_6_toy_convergence(toy_runs, capsys):
    runs, total_seconds = toy_runs
    ters = {name: result.final_dev_ter for name, (_, result) in runs.items()}
    passed = (ters["depth"] <= 0.05
              and all(t <= 0.10 for t in ters.values())
              and total_seconds <= 1800.0)
    detail = ", ".join(f"{name} {ter:.3f}" for name, ter in ters.items())
    say(capsys, 6, "toy convergence", passed,
        f"dev TER {detail}; total {total_seconds / 60:.1f} min")


def test_criterion_7_diagonality(toy_runs, corpus, capsys):
    exact_identity = attention_diagonality(np.eye(5)) == 1.0
    uniform_err = abs(attention_diagonality(np.full((4, 4), 0.25)) - 7 / 12)
    exact_anti = attention_diagonality(np.array([[0.0, 1.0], [1.0, 0.0]])) == 0.0

    model, _ = toy_runs[0]["depth"]
    _, dev, _ = corpus
    report = diagonality_by_layer_head(model, dev, max_utts=8)
    in_range = bool(np.all(report >= 0.0) and np.all(report <= 1.0))

    passed = exact_identity and uniform_err <= 1e-12 and exact_anti and in_range
    say(capsys, 7, "attention diagonality", passed,
        f"identity exact {exact_identity}, uniform T=4 err {uniform_err:.1e}, "
        f"anti-diagonal exact {exact_anti}, trained report in [0,1] {in_range}")


def test_criterion_8_gate_importance(toy_runs, corpus, capsys):
    _, dev, _ = corpus
    fresh = build_model(dataclasses.replace(toy_cfg("multiconv", "weighted"), seed=1))
    start = kernel_importance(fresh, dev, max_utts=4)
    uniform_exact = bool(np.array_equal(start, np.full_like(start, 0.25)))

    trained, _ = toy_runs[0]["weighted"]
    imp = kernel_importance(trained, dev, max_utts=8)
    row_err = float(np.abs(imp.sum(axis=1) - 1.0).max())

    text = importance_csv(imp, TOY_KERNELS)
    rows = list(csv.DictReader(io.StringIO(text)))
    csv_ok = (len(rows) == imp.shape[0]
              and set(rows[0]) == {"layer", "k3", "k7", "k11", "k15"}
              and all(0.0 <= float(row[f"k{k}"]) <= 1.0
                      for row in rows for k in TOY_KERNELS))

    passed = uniform_exact and row_err <= 1e-6 and csv_ok
    say(capsys, 8, "kernel gate importance", passed,
        f"zero-init uniform exact {uniform_exact}, trained row-sum err "
        f"{row_err:.1e}, csv export ok {csv_ok}")


def test_criterion_9_determinism_and_persistence(corpus, tmp_path, capsys):
    train, dev, _ = corpus
    cfg = EncoderConfig(dim=32, layers=1, heads=2, d_inter=64, d_ffn=48,
                        conv_block="multiconv", fusion="weighted",
                        kernels=(3, 5), n_mels=80, vocab=8, seed=3)
    tcfg = TrainConfig(seed=3, steps=20, batch_size=8, eval_every=10)

    # train_model itself writes the best-dev model.mckpt snapshot
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        model = build_model(cfg)
        train_model(model, train, dev[:40], tcfg, out_dir=out)
        paths.append(out)
    rows = []
    for out in paths:
        parsed = [json.loads(line) for line in
                  (out / "metrics.jsonl").read_text().splitlines()]
        rows.append([{k: v for k, v in row.items() if k != "wall_seconds"}
                     for row in parsed])
    metrics_identical = rows[0] == rows[1] and len(rows[0]) == 2
    weights_identical = ((paths[0] / "model.mckpt").read_bytes()
                         == (paths[1] / "model.mckpt").read_bytes())

    # persistence: configs round-trip exactly, checkpoints bit-exactly
    config_ok = True
    for record in (cfg, tcfg, DataSpec(noise_std=1.0 / 3.0)):
        record.save(tmp_path / "cfg.json")
        config_ok &= type(record).load(tmp_path / "cfg.json") == record

    weird = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-45], dtype=np.float32)
    save_arrays(tmp_path / "w.mckpt", [("w", weird)])
    bits_ok = load_arrays(tmp_path / "w.mckpt")["w"].tobytes() == weird.tobytes()

    restored = build_model(dataclasses.replace(cfg, seed=999))
    load_model(paths[0] / "model.mckpt", restored)
    trained_model = build_model(dataclasses.replace(cfg, seed=tcfg.seed))
    load_model(paths[1] / "model.mckpt", trained_model)
    x = Tensor(train[0].feats)
    model_ok = bool(np.array_equal(restored(x).data, trained_model(x).data))

    passed = (metrics_identical and weights_identical and config_ok
              and bits_ok and model_ok)
    say(capsys, 9, "determinism and persistence", passed,
        f"metrics identical {metrics_identical}, weights identical "
        f"{weights_identical}, config round trip {config_ok}, "
        f"bit round trip {bits_ok}, restored model {model_ok}")
