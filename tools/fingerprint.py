"""Digests of what short training runs produce, for showing that a change
leaves every output bit-identical.

    python3 tools/fingerprint.py

Generates a small corpus, then trains each of the six model variants of
acceptance criterion 6 (the four fusion rules and the two baselines) at the
toy geometry (dim 64, 2 layers, d_inter 384, kernels 3/7/11/15) for a few
steps with dropout 0.1, once with float32 and once with float64 parameters.
It prints one sha256 per variant and dtype, then one over all of them. Each
digest covers the ``metrics.jsonl`` rows without ``wall_seconds``, the bytes
of the checkpoint, the logits of the trained model on a fixed input, and the
analysis outputs: attention diagonality, and kernel importance for
``weighted``. A last line digests the CTC loss alone over 3,000 seeded
random lattices: each loss, feasibility flag and float32/float64 logit
gradient, infeasible and repeated label sequences included. Run it on two
revisions and compare the output.

The training digests depend on the BLAS thread count. Run as a script, it
sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
to 1 where they are unset, before numpy loads, and its first line gives the
three values and ``nproc``. Compare only runs whose first lines agree.

The script uses only the package's public functions, so the same file runs
on earlier revisions too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # importing the module leaves the environment alone
    for _var in BLAS_VARS:
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from multiconv import analysis  # noqa: E402
from multiconv.autodiff import Tape, Tensor, backward  # noqa: E402
from multiconv.config import DataSpec, EncoderConfig, TrainConfig  # noqa: E402
from multiconv.ctc import ctc_loss  # noqa: E402
from multiconv.data import generate_dataset, load_split  # noqa: E402
from multiconv.encoder import build_model  # noqa: E402
from multiconv.training import train_model  # noqa: E402

# (name, conv_block, fusion), as acceptance criterion 6 trains them
VARIANTS = (
    ("depth", "multiconv", "depth"),
    ("sum", "multiconv", "sum"),
    ("weighted", "multiconv", "weighted"),
    ("concat", "multiconv", "concat"),
    ("csgu", "csgu", "depth"),
    ("conformer", "conformer", "depth"),
)
TOY = EncoderConfig(dim=64, layers=2, heads=4, d_inter=384, d_ffn=0,
                    kernels=(3, 7, 11, 15), n_mels=80, vocab=8, dropout=0.1, seed=0)
CORPUS = DataSpec(n_train=24, n_dev=6, n_test=1, seed=0)
TRAIN = TrainConfig(seed=0, steps=6, batch_size=4, eval_every=3)
ANALYSED_UTTS = 4
LATTICES = 3000


def run_digest(cfg: EncoderConfig, dtype, tcfg: TrainConfig, train, dev) -> str:
    """sha256 over one training run's metrics, checkpoint, logits and analyses."""
    h = hashlib.sha256()
    model = build_model(cfg, dtype)
    with tempfile.TemporaryDirectory() as out:
        train_model(model, train, dev, tcfg, out_dir=out)
        for line in (Path(out) / "metrics.jsonl").read_text().splitlines():
            row = json.loads(line)
            del row["wall_seconds"]
            h.update(json.dumps(row, sort_keys=True).encode())
        h.update((Path(out) / "model.mckpt").read_bytes())
    probe = np.random.default_rng(7).normal(size=(40, cfg.n_mels)).astype(dtype)
    h.update(model(Tensor(probe)).data.tobytes())
    h.update(analysis.diagonality_by_layer_head(model, dev, max_utts=ANALYSED_UTTS).tobytes())
    if cfg.conv_block == "multiconv" and cfg.fusion == "weighted":
        h.update(analysis.kernel_importance(model, dev, max_utts=ANALYSED_UTTS).tobytes())
    return h.hexdigest()


def fingerprint(data_dir, base: EncoderConfig = TOY, tcfg: TrainConfig = TRAIN,
                variants=VARIANTS, dtypes=(np.float32, np.float64)) -> dict[str, str]:
    """``{"<variant>/<dtype>": digest, ..., "total": digest}`` for the corpus
    in ``data_dir``; the total hashes the others in order."""
    train, dev = load_split(data_dir, "train"), load_split(data_dir, "dev")
    digests = {}
    for name, block, fusion in variants:
        cfg = dataclasses.replace(base, conv_block=block, fusion=fusion)
        for dtype in dtypes:
            digests[f"{name}/{np.dtype(dtype).name}"] = run_digest(cfg, dtype, tcfg, train, dev)
    digests["total"] = hashlib.sha256("".join(digests.values()).encode()).hexdigest()
    return digests


def lattice_digest(n_lattices: int = LATTICES, seed: int = 0) -> str:
    """sha256 over the loss, feasibility flag and logit gradient of
    ``ctc_loss`` on seeded random lattices (T 1-29, vocab 1-5, 0-11 labels),
    with float32 and float64 logits. Short lattices and small vocabularies
    make infeasible and repeated label sequences common."""
    h = hashlib.sha256()
    rng = np.random.default_rng(seed)
    for _ in range(n_lattices):
        n_frames = int(rng.integers(1, 30))
        vocab = int(rng.integers(1, 6))
        labels = [int(y) for y in rng.integers(1, vocab + 1, size=int(rng.integers(0, 12)))]
        logits = rng.normal(size=(n_frames, vocab + 1)) * 3
        for dtype in (np.float32, np.float64):
            x = Tensor(logits.astype(dtype), requires_grad=True)
            with Tape():
                loss, ok = ctc_loss(x, labels)
                if ok:
                    backward(loss)
            h.update(bytes([ok]) + np.float64(loss.item()).tobytes())
            h.update(b"-" if x.grad is None else x.grad.tobytes())
    return h.hexdigest()


def blas_line() -> str:
    """The BLAS thread settings and CPU count that the digests ran under."""
    settings = " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_VARS)
    return f"{'blas threads':<20s} {settings} nproc={os.cpu_count()}"


def main() -> int:
    print(blas_line(), flush=True)
    with tempfile.TemporaryDirectory() as data_dir:
        generate_dataset(CORPUS, data_dir)
        digests = fingerprint(data_dir)
    for key, digest in digests.items():
        print(f"{key:<20s} {digest}")
    print(f"{'ctc lattices':<20s} {lattice_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
