"""Command line behaviour: the full pipeline in-process, plus exit codes.

Exit-code contract: 0 success, 1 usage error, 2 runtime failure. Usage
errors surface as SystemExit raised by the parser; runtime failures are
caught and returned.
"""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import multiconv.training
from multiconv.cli import (
    _DATA_FLAGS,
    _FLAG_FIELDS,
    _TRAIN_FLAGS,
    _encoder_from_args,
    _record_from_args,
    build_parser,
    main,
)
from multiconv.config import CONV_BLOCKS, DataSpec, FusionKind, TrainConfig

ROOT = Path(__file__).resolve().parent.parent

DATA_FLAGS = ["--vocab", "3", "--n-train", "8", "--n-dev", "4",
              "--n-test", "2", "--min-tokens", "2", "--max-tokens", "3",
              "--frames-per-token", "6", "--n-mels", "7",
              "--noise-std", "0.1", "--seed", "5"]

SHAPE_FLAGS = ["--dim", "12", "--layers", "1", "--heads", "2",
               "--d-inter", "16", "--d-ffn", "20", "--kernels", "3,5",
               "--fusion", "weighted"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated corpus and one small trained model, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(["gen-data", "--out", str(data)] + DATA_FLAGS) == 0
    code = main(["train", "--data", str(data), "--out", str(run),
                 *SHAPE_FLAGS, "--steps", "4", "--batch-size", "4",
                 "--eval-every", "2", "--quiet"])
    assert code == 0
    return data, run


def test_gen_data_writes_all_files(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen-data", "--out", str(out)] + DATA_FLAGS) == 0
    for name in ("train.f32", "train.json", "train.txt",
                 "dev.f32", "dev.json", "dev.txt",
                 "test.f32", "test.json", "test.txt", "data_spec.json"):
        assert (out / name).exists(), name
    assert "train=8 dev=4 test=2" in capsys.readouterr().out


def test_gen_data_refuses_to_clobber_without_force(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen-data", "--out", str(out)] + DATA_FLAGS) == 0
    assert main(["gen-data", "--out", str(out)] + DATA_FLAGS) == 2
    assert "not empty" in capsys.readouterr().err
    assert main(["gen-data", "--out", str(out), "--force"] + DATA_FLAGS) == 0


def test_gen_data_rejects_a_nan_noise_std_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "corpus"
    # the last --noise-std wins
    assert main(["gen-data", "--out", str(out)] + DATA_FLAGS + ["--noise-std", "nan"]) == 2
    assert "noise_std must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_rejects_a_negative_seed_and_creates_no_directory(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen-data", "--out", str(out)] + DATA_FLAGS + ["--seed", "-1"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_rejects_fewer_mel_bins_than_a_model_reads(tmp_path, capsys):
    out = tmp_path / "corpus"
    flags = DATA_FLAGS[:DATA_FLAGS.index("--n-mels") + 1] + ["6"] \
        + DATA_FLAGS[DATA_FLAGS.index("--n-mels") + 2:]
    assert main(["gen-data", "--out", str(out)] + flags) == 2
    assert "n_mels must be at least 7" in capsys.readouterr().err
    assert not out.exists()


def test_train_writes_artifacts(workspace, capsys):
    _, run = workspace
    for name in ("encoder.json", "train.json", "environment.json", "model.mckpt",
                 "metrics.jsonl"):
        assert (run / name).exists(), name
    rows = [json.loads(l) for l in (run / "metrics.jsonl").read_text().splitlines()]
    assert [r["step"] for r in rows] == [2, 4]


def test_train_records_its_numeric_environment(workspace, tmp_path, monkeypatch):
    # the training digests move with the BLAS thread count, so a run keeps
    # the settings it ran under; an unset variable is recorded as null
    data, _ = workspace
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(run), *SHAPE_FLAGS,
                 "--steps", "1", "--batch-size", "2", "--eval-every", "1", "--quiet"]) == 0
    assert json.loads((run / "environment.json").read_text()) == {
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                         "MKL_NUM_THREADS": "3"},
        "cpu_count": os.cpu_count()}


def test_train_rejects_an_odd_dim_before_writing_anything(workspace, tmp_path, capsys):
    data, _ = workspace
    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(run), "--dim", "5",
                 "--heads", "5", "--d-inter", "10", "--kernels", "3", "--fusion", "sum",
                 "--steps", "1", "--batch-size", "2", "--quiet"]) == 2
    assert "even dim, got 5" in capsys.readouterr().err
    assert not run.exists()


def test_eval_reports_ter(workspace, capsys):
    data, run = workspace
    assert main(["eval", "--data", str(data), "--model", str(run)]) == 0
    out = capsys.readouterr().out
    assert "split=dev" in out and "ter=" in out and "utterances=4" in out


def test_eval_covers_the_held_out_split(workspace, tmp_path, capsys):
    data, run = workspace
    per_utt = tmp_path / "per_utt.csv"
    code = main(["eval", "--data", str(data), "--model", str(run),
                 "--split", "test", "--out", str(per_utt)])
    assert code == 0
    assert "split=test" in capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(per_utt.read_text())))
    assert len(rows) == 2
    assert set(rows[0]) == {"uid", "ref_len", "edit_distance"}
    assert all(row["uid"].startswith("test-") for row in rows)


def test_eval_missing_model_is_runtime_failure(workspace, tmp_path, capsys):
    data, _ = workspace
    code = main(["eval", "--data", str(data), "--model", str(tmp_path / "nope")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data"])  # --out is required
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_diagonality_prints_and_writes_csv(workspace, tmp_path, capsys):
    data, run = workspace
    out_csv = tmp_path / "diag.csv"
    code = main(["analyze", "diagonality", "--data", str(data),
                 "--model", str(run), "--utts", "2", "--out", str(out_csv)])
    assert code == 0
    assert "mean diagonality" in capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    assert len(rows) == 1  # one row per layer, heads averaged
    assert set(rows[0]) == {"layer", "value"}
    for row in rows:
        assert 0.0 <= float(row["value"]) <= 1.0


@pytest.mark.parametrize("analysis", ["diagonality", "gate-importance"])
@pytest.mark.parametrize("utts", ["0", "-1", "two"])
def test_analyze_utts_must_be_positive(workspace, analysis, utts, capsys):
    data, run = workspace
    with pytest.raises(SystemExit) as exc:
        main(["analyze", analysis, "--data", str(data), "--model", str(run),
              "--utts", utts])
    assert exc.value.code == 1
    assert "positive integer" in capsys.readouterr().err


def test_gate_importance_rows_sum_to_one(workspace, tmp_path, capsys):
    data, run = workspace
    out_csv = tmp_path / "gates.csv"
    code = main(["analyze", "gate-importance", "--data", str(data),
                 "--model", str(run), "--utts", "2", "--out", str(out_csv)])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    assert rows and set(rows[0]) == {"layer", "k3", "k5"}
    for row in rows:
        assert float(row["k3"]) + float(row["k5"]) == pytest.approx(1.0, abs=1e-6)


def test_gate_importance_needs_weighted_fusion(workspace, tmp_path, capsys):
    data, _ = workspace
    run = tmp_path / "sum_run"
    flags = [f if f != "weighted" else "sum" for f in SHAPE_FLAGS]
    assert main(["train", "--data", str(data), "--out", str(run), *flags,
                 "--steps", "2", "--batch-size", "4", "--quiet"]) == 0
    capsys.readouterr()
    code = main(["analyze", "gate-importance", "--data", str(data),
                 "--model", str(run)])
    assert code == 2
    assert "weighted" in capsys.readouterr().err


@pytest.fixture(scope="module")
def other_corpora(tmp_path_factory):
    """Corpora whose vocabulary or feature bins differ from the workspace's."""
    root = tmp_path_factory.mktemp("other_corpora")
    corpora = {}
    for name, flag, value in (("vocab", "--vocab", "4"), ("n_mels", "--n-mels", "9")):
        flags = DATA_FLAGS + [flag, value, "--n-train", "2", "--n-dev", "2", "--n-test", "1"]
        assert main(["gen-data", "--out", str(root / name)] + flags) == 0
        corpora[name] = root / name
    return corpora


@pytest.mark.parametrize("command", [["eval"], ["analyze", "diagonality"],
                                     ["analyze", "gate-importance"]], ids=" ".join)
@pytest.mark.parametrize("field,dataset", [("vocab", "vocab=4 n_mels=7"),
                                           ("n_mels", "vocab=3 n_mels=9")],
                         ids=["vocab", "n_mels"])
def test_model_and_data_must_agree_for_every_command_that_loads_a_model(
        workspace, other_corpora, command, field, dataset, capsys):
    _, run = workspace
    capsys.readouterr()
    code = main([*command, "--data", str(other_corpora[field]), "--model", str(run)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: model expects vocab=3 n_mels=7 but the dataset has {dataset}\n")


def test_train_rejects_mismatched_config_file(workspace, tmp_path, capsys):
    data, run = workspace
    other = tmp_path / "other"
    # config on disk says vocab=3; point it at data with a different vocab
    assert main(["gen-data", "--out", str(other), "--vocab", "4",
                 "--n-train", "4", "--n-dev", "2", "--n-test", "2",
                 "--min-tokens", "2", "--max-tokens", "3",
                 "--frames-per-token", "6", "--n-mels", "7", "--seed", "1"]) == 0
    code = main(["train", "--data", str(other), "--out", str(tmp_path / "r"),
                 "--config", str(run / "encoder.json"),
                 "--steps", "1", "--batch-size", "2", "--quiet"])
    assert code == 2
    assert "vocab" in capsys.readouterr().err


def test_config_file_fields_yield_to_explicit_flags(workspace, tmp_path, capsys):
    _, run = workspace
    code = main(["param-count", "--config", str(run / "encoder.json"),
                 "--fusion", "sum"])
    assert code == 0
    base = capsys.readouterr().out
    code = main(["param-count", "--config", str(run / "encoder.json")])
    assert code == 0
    weighted = capsys.readouterr().out
    # the trained config used weighted fusion, which carries a gate projection
    # the sum override drops: totals must differ
    assert base != weighted


@pytest.mark.parametrize("bad", ["3,x", "8,16", "4", "0", "-3", "5,3", "3,3", "", "3.7"])
def test_bad_kernel_list_is_a_usage_error(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["param-count", "--kernels", bad])
    assert exc.value.code == 1
    assert "kernel" in capsys.readouterr().err


def _choices(parser, dest):
    """The choices of every option named ``dest`` in the parser's subcommands."""
    found = []
    for action in parser._actions:
        if action.dest == dest:
            found.append(tuple(action.choices))
        elif isinstance(action.choices, dict):  # a table of subcommand parsers
            for sub in action.choices.values():
                found += _choices(sub, dest)
    return found


def test_name_choices_come_from_the_enum_and_the_block_tuple():
    parser = build_parser()
    fusions = _choices(parser, "fusion")
    blocks = _choices(parser, "conv_block")
    assert len(fusions) == len(blocks) == 2  # train and param-count
    assert set(fusions) == {tuple(kind.value for kind in FusionKind)}
    assert set(blocks) == {CONV_BLOCKS}


def test_help_defaults_are_those_of_a_config_built_from_flags():
    parser = build_parser()
    cfg = _encoder_from_args(parser.parse_args(["param-count"]))
    sub = next(a for a in parser._actions if isinstance(a.choices, dict))
    helps = {a.dest: a.help for a in sub.choices["param-count"]._actions}
    for name in _FLAG_FIELDS:
        value = getattr(cfg, name)
        text = ",".join(map(str, value)) if isinstance(value, tuple) else value
        assert helps[name].endswith(f"(default {text})"), name


def test_record_flags_default_to_the_record_defaults():
    parser = build_parser()
    args = parser.parse_args(["gen-data", "--out", "X"])
    assert _record_from_args(DataSpec, args, _DATA_FLAGS) == DataSpec()
    args = parser.parse_args(["train", "--data", "D", "--out", "X"])
    assert _record_from_args(TrainConfig, args, _TRAIN_FLAGS) == TrainConfig()


def test_record_flags_take_the_field_types():
    args = build_parser().parse_args(
        ["gen-data", "--out", "X", "--n-train", "5", "--noise-std", "1"])
    spec = _record_from_args(DataSpec, args, _DATA_FLAGS)
    assert spec == DataSpec(n_train=5, noise_std=1.0)
    assert type(spec.n_train) is int and type(spec.noise_std) is float


def test_interrupted_train_leaves_a_loadable_run(workspace, tmp_path, monkeypatch, capsys):
    data, _ = workspace
    run = tmp_path / "cut"
    save = multiconv.training.save_model

    def save_then_stop(*args, **kwargs):
        save(*args, **kwargs)
        raise KeyboardInterrupt

    monkeypatch.setattr(multiconv.training, "save_model", save_then_stop)
    with pytest.raises(KeyboardInterrupt):
        main(["train", "--data", str(data), "--out", str(run), *SHAPE_FLAGS,
              "--steps", "8", "--batch-size", "2", "--eval-every", "2", "--quiet"])
    monkeypatch.undo()
    assert (run / "model.mckpt").exists()
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--model", str(run)]) == 0
    assert "split=dev" in capsys.readouterr().out


def test_param_count_breakdown(capsys):
    code = main(["param-count", "--dim", "12", "--layers", "1", "--heads", "2",
                 "--d-inter", "16", "--d-ffn", "20", "--kernels", "3,5",
                 "--n-mels", "7", "--vocab", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "total parameters" in out
    assert "conv_fusion_part" in out


def test_param_count_compare_fusions(capsys):
    code = main(["param-count", "--dim", "12", "--layers", "1", "--heads", "2",
                 "--d-inter", "16", "--d-ffn", "20", "--kernels", "3,5",
                 "--n-mels", "7", "--vocab", "4", "--compare-fusions"])
    assert code == 0
    out = capsys.readouterr().out
    for fusion in ("sum", "weighted", "concat", "depth"):
        assert fusion in out
    # the cheapest fusion is listed with a zero delta
    assert "(+0)" in out


def test_grad_check_passes(capsys):
    assert main(["grad-check"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert "gradient checks passed" in out[-1]
    assert not any(line.startswith("FAIL") for line in out)


@pytest.mark.parametrize("seed", ["-1", "two"])
def test_grad_check_seed_must_be_non_negative(seed, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["grad-check", "--seed", seed])
    assert exc.value.code == 1
    assert "non-negative integer" in capsys.readouterr().err


def test_console_script_entry_point():
    # the console script only exists once the package is pip-installed, so
    # check what it would run: the declared target, and that target itself
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert meta["project"]["scripts"]["multiconv"] == "multiconv.cli:main"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "multiconv.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout
