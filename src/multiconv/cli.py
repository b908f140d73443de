"""Command line front end.

Subcommands: gen-data, train, eval, analyze diagonality,
analyze gate-importance, param-count, grad-check.

Exit codes: 0 on success, 1 on a usage error (bad flags or arguments),
2 on a runtime failure (missing files, invalid configs, failed checks).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from pathlib import Path

import numpy as np
import scipy

from . import analysis
from .checkpoint import load_model
from .config import CONV_BLOCKS, FUSIONS, DataSpec, EncoderConfig, TrainConfig, check_kernels
from .data import SPLITS, generate_dataset, load_spec, load_split
from .encoder import build_model
from .errors import ConfigError
from .gradcheck import run_suite
from .training import evaluate, train_model


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this front end reserves 2 for
    runtime failures, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_kernels(text: str) -> tuple[int, ...]:
    """argparse type for --kernels; a bad list is a usage error (exit 1)."""
    try:
        kernels = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"kernels must be comma-separated integers, got {text!r}") from None
    try:
        return check_kernels(kernels)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_at_least(low: int):
    """argparse type for an integer of at least ``low``, 0 or 1; else a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected a {('non-negative', 'positive')[low]} integer, got {text!r}")
        return value
    return parse


# the record fields that gen-data and train take as flags; Adam's constants have none
_DATA_FLAGS = tuple(f.name for f in dataclasses.fields(DataSpec))
_TRAIN_FLAGS = ("seed", "steps", "batch_size", "lr", "clip_norm", "eval_every", "target_ter")


def _add_record_flags(p: argparse.ArgumentParser, cls, names, helps=None) -> None:
    """A ``--field-name`` flag for each named field of the record ``cls``,
    with the field's type and default."""
    defaults, types = cls(), typing.get_type_hints(cls)
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), type=types[name],
                       default=getattr(defaults, name), help=(helps or {}).get(name))


def _record_from_args(cls, args, names):
    """The ``cls`` record that the flags of :func:`_add_record_flags` hold."""
    return cls(**{name: getattr(args, name) for name in names})


# flags that map one-to-one onto EncoderConfig fields; None means "not passed"
_FLAG_FIELDS = ("dim", "layers", "heads", "d_inter", "d_ffn",
                "conv_block", "fusion", "kernels", "dropout", "n_mels", "vocab")

# the base of a config built from flags alone; the help texts quote it
_DESK = EncoderConfig(dim=64, layers=2, heads=4, kernels=(3, 7, 11, 15))


def _add_encoder_flags(p: argparse.ArgumentParser, with_data_fields: bool) -> None:
    p.add_argument("--config", type=Path, default=None, metavar="PATH",
                   help="JSON encoder config used as the base; "
                        "explicit shape flags override its fields")

    def flag(name: str, text: str, **kwargs) -> None:
        value = getattr(_DESK, name)
        shown = ",".join(map(str, value)) if isinstance(value, tuple) else value
        p.add_argument("--" + name.replace("_", "-"), default=None,
                       help=f"{text} (default {shown})", **kwargs)

    flag("dim", "model width", type=int)
    flag("layers", "encoder depth", type=int)
    flag("heads", "attention heads", type=int)
    flag("d_inter", "conv-block expansion width, 0 means 6*dim", type=int)
    flag("d_ffn", "feed-forward width, 0 means 4*dim", type=int)
    flag("conv_block", "convolution half-block", choices=CONV_BLOCKS)
    flag("fusion", "multi-kernel fusion rule", choices=FUSIONS)
    flag("kernels", "comma-separated odd increasing widths", type=_parse_kernels)
    flag("dropout", "dropout rate", type=float)
    if with_data_fields:
        flag("n_mels", "feature bins", type=int)
        flag("vocab", "token vocabulary size", type=int)


def _encoder_from_args(args, n_mels: int | None = None,
                       vocab: int | None = None) -> EncoderConfig:
    """Resolve the encoder config for a subcommand.

    A ``--config`` file provides the base when given, and any explicitly
    passed shape flag overrides that single field. Without a file the base
    is ``_DESK``. ``n_mels``/``vocab`` pinned by a dataset must agree with
    whatever the file and flags resolve to.
    """
    overrides = {name: value for name in _FLAG_FIELDS
                 if (value := getattr(args, name, None)) is not None}
    if args.config is not None:
        cfg = dataclasses.replace(EncoderConfig.load(args.config), **overrides)
    else:
        base = dict(seed=getattr(args, "seed", 0))
        if n_mels is not None:
            base["n_mels"] = n_mels
        if vocab is not None:
            base["vocab"] = vocab
        base.update(overrides)
        cfg = dataclasses.replace(_DESK, **base)
    if n_mels is not None and cfg.n_mels != n_mels:
        raise ConfigError(
            f"encoder config has n_mels={cfg.n_mels} but the data uses {n_mels}")
    if vocab is not None and cfg.vocab != vocab:
        raise ConfigError(
            f"encoder config has vocab={cfg.vocab} but the data uses {vocab}")
    return cfg.validate()


def _load_trained(model_dir: Path, data_dir: Path):
    """The trained model in ``model_dir``, once its config is known to fit
    the corpus in ``data_dir``."""
    cfg = EncoderConfig.load(model_dir / "encoder.json")
    data_spec = load_spec(data_dir)
    if cfg.vocab != data_spec.vocab or cfg.n_mels != data_spec.n_mels:
        raise ConfigError(
            f"model expects vocab={cfg.vocab} n_mels={cfg.n_mels} but the "
            f"dataset has vocab={data_spec.vocab} n_mels={data_spec.n_mels}")
    model = build_model(cfg)
    load_model(model_dir / "model.mckpt", model)
    return cfg, model


def _cmd_gen_data(args) -> int:
    spec = _record_from_args(DataSpec, args, _DATA_FLAGS)
    generate_dataset(spec, args.out, force=args.force)
    print(f"wrote train={spec.n_train} dev={spec.n_dev} test={spec.n_test} "
          f"utterances to {args.out}")
    return 0


def _numeric_environment() -> dict:
    """What a run's bits depend on besides its configs and seed: the library
    versions and the BLAS thread settings (None where unset)."""
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": {var: os.environ.get(var) for var in threads},
            "cpu_count": os.cpu_count()}


def _cmd_train(args) -> int:
    data_spec = load_spec(args.data)
    cfg = _encoder_from_args(args, n_mels=data_spec.n_mels, vocab=data_spec.vocab)
    tcfg = _record_from_args(TrainConfig, args, _TRAIN_FLAGS).validate()
    train_utts = load_split(args.data, "train")
    dev_utts = load_split(args.data, "dev")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # written first, so an interrupted run still leaves a loadable directory
    cfg.save(out / "encoder.json")
    tcfg.save(out / "train.json")
    (out / "environment.json").write_text(json.dumps(_numeric_environment(), indent=2) + "\n")
    model = build_model(cfg)
    result = train_model(model, train_utts, dev_utts, tcfg, out_dir=out,
                         log=None if args.quiet else print)
    if result.n_infeasible:
        print(f"warning: skipped {result.n_infeasible} utterance passes "
              f"too short for their labels", file=sys.stderr)
    stop = "early-stop" if result.stopped_early else "budget"
    print(f"trained {result.steps_run} steps ({stop})  "
          f"final dev_ter {result.final_dev_ter:.4f}  "
          f"best dev_ter {result.best_dev_ter:.4f} at step {result.best_step}  "
          f"wall {result.wall_seconds:.1f}s")
    return 0


def _cmd_eval(args) -> int:
    cfg, model = _load_trained(args.model, args.data)
    utts = load_split(args.data, args.split)
    result = evaluate(model, utts)
    print(f"split={args.split} utterances={result.n_utterances} "
          f"ter={result.ter:.4f} loss={result.loss:.4f}")
    if result.n_infeasible:
        print(f"loss skipped {result.n_infeasible} utterances too short for their labels")
    if args.out:
        Path(args.out).write_text(result.per_utt_csv())
        print(f"wrote {args.out}")
    return 0


def _cmd_diagonality(args) -> int:
    cfg, model = _load_trained(args.model, args.data)
    utts = load_split(args.data, args.split)
    matrix = analysis.diagonality_by_layer_head(model, utts, max_utts=args.utts)
    for layer in range(cfg.layers):
        cells = "  ".join(f"h{h}={matrix[layer, h]:.4f}" for h in range(cfg.heads))
        print(f"layer {layer}: {cells}")
    print(f"mean diagonality {matrix.mean():.4f} over {min(args.utts, len(utts))} utterances")
    if args.out:
        Path(args.out).write_text(analysis.diagonality_csv(matrix))
        print(f"wrote {args.out}")
    return 0


def _cmd_gate_importance(args) -> int:
    cfg, model = _load_trained(args.model, args.data)
    utts = load_split(args.data, args.split)
    importance = analysis.kernel_importance(model, utts, max_utts=args.utts)
    header = "  ".join(f"k={k}" for k in cfg.kernels)
    print(f"kernel importance ({header})")
    for layer in range(cfg.layers):
        cells = "  ".join(f"{v:.4f}" for v in importance[layer])
        print(f"layer {layer}: {cells}")
    if args.out:
        Path(args.out).write_text(analysis.importance_csv(importance, cfg.kernels))
        print(f"wrote {args.out}")
    return 0


def _cmd_param_count(args) -> int:
    cfg = _encoder_from_args(args)
    info = analysis.param_breakdown(cfg)
    print(f"total parameters      {info['total']:>12,}")
    print(f"  encoder             {info['encoder']:>12,}")
    print(f"    subsampler        {info['subsampler']:>12,}")
    for name, count in info["per_layer"].items():
        print(f"    per-layer {name:<17s}{count:>10,}")
    print(f"  output head         {info['head']:>12,}")
    if args.compare_fusions:
        rows = analysis.fusion_comparison(cfg)
        base = min(r["total"] for r in rows)
        print("fusion totals:")
        for row in rows:
            print(f"  {row['fusion']:<9s}{row['total']:>12,}  (+{row['total'] - base:,})")
    return 0


def _cmd_grad_check(args) -> int:
    results, elapsed = run_suite(seed=args.seed)
    failed = 0
    for r in results:
        mark = "ok " if r.passed else "FAIL"
        print(f"{mark} {r.name:<34s} n={r.size:<5d} max_rel_err={r.max_rel_err:.3e} "
              f"tol={r.tol:.0e}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} gradient checks passed "
          f"in {elapsed:.1f}s")
    return 0 if failed == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="multiconv",
                     description="Multi-kernel gated convolution speech encoder")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="render a synthetic utterance corpus")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--force", action="store_true",
                   help="overwrite a non-empty output directory")
    _add_record_flags(p, DataSpec, _DATA_FLAGS)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a CTC model on a generated corpus")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_encoder_flags(p, with_data_fields=False)
    _add_record_flags(p, TrainConfig, _TRAIN_FLAGS, helps={
        "seed": "training seed; a fresh config also records it as the "
                "weight-init seed (a --config file keeps its own)",
        "target_ter": "stop once dev TER reaches this; negative disables"})
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a trained model on a split")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--split", choices=SPLITS, default="dev")
    p.add_argument("--out", type=Path, default=None,
                   help="optional per-utterance CSV path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="inspect a trained model")
    ana = p.add_subparsers(dest="analysis", required=True, parser_class=_Parser)

    for name, text, func in (
            ("diagonality", "attention alignment per layer and head", _cmd_diagonality),
            ("gate-importance", "learned kernel mixture weights", _cmd_gate_importance)):
        q = ana.add_parser(name, help=text)
        q.add_argument("--data", type=Path, required=True)
        q.add_argument("--model", type=Path, required=True)
        q.add_argument("--split", choices=SPLITS, default="dev")
        q.add_argument("--utts", type=_int_at_least(1), default=8)
        q.add_argument("--out", type=Path, default=None, help="optional CSV path")
        q.set_defaults(func=func)

    p = sub.add_parser("param-count", help="parameter accounting for a config")
    _add_encoder_flags(p, with_data_fields=True)
    p.add_argument("--compare-fusions", action="store_true",
                   help="also list totals for all four fusion rules")
    p.set_defaults(func=_cmd_param_count)

    p = sub.add_parser("grad-check", help="finite-difference gradient audit")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_grad_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # runtime failures exit 2, never a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
