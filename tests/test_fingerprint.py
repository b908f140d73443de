"""The bit-identity fingerprints: repeatable, moved by their seeds, and
printed under the BLAS thread settings they ran with."""

import dataclasses
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from multiconv.config import DataSpec, EncoderConfig, TrainConfig
from multiconv.data import generate_dataset

_PATH = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"
_SPEC = importlib.util.spec_from_file_location("fingerprint", _PATH)
fingerprint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint)

TINY = EncoderConfig(dim=12, layers=1, heads=2, d_inter=16, d_ffn=20, kernels=(3, 5),
                     n_mels=9, vocab=3, dropout=0.1, seed=0)
WEIGHTED = (("weighted", "multiconv", "weighted"),)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("fingerprint")
    generate_dataset(DataSpec(vocab=3, n_train=4, n_dev=2, n_test=1, min_tokens=2,
                              max_tokens=3, frames_per_token=6, n_mels=9, seed=1), root)
    return root


def _digests(corpus, seed=0, dropout=0.1):
    return fingerprint.fingerprint(
        corpus, base=dataclasses.replace(TINY, dropout=dropout),
        tcfg=TrainConfig(seed=seed, steps=2, batch_size=2, eval_every=1),
        variants=WEIGHTED, dtypes=(np.float32,))


def test_fingerprint_repeats_and_follows_the_training_seed(corpus):
    first = _digests(corpus)
    assert list(first) == ["weighted/float32", "total"]
    assert _digests(corpus) == first
    assert _digests(corpus, seed=1)["weighted/float32"] != first["weighted/float32"]
    assert _digests(corpus, dropout=0.0)["weighted/float32"] != first["weighted/float32"]


def test_lattice_digest_repeats_and_follows_the_seed():
    first = fingerprint.lattice_digest(200)
    assert fingerprint.lattice_digest(200) == first
    assert fingerprint.lattice_digest(200, seed=1) != first


def test_the_blas_thread_settings_are_printed_before_the_digests(monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setattr(fingerprint, "generate_dataset", lambda spec, out: None)
    monkeypatch.setattr(fingerprint, "fingerprint", lambda data_dir: {"total": "d1"})
    monkeypatch.setattr(fingerprint, "lattice_digest", lambda: "d2")
    assert fingerprint.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["blas", "threads", "OPENBLAS_NUM_THREADS=3", "OMP_NUM_THREADS=1",
                                "MKL_NUM_THREADS=unset", f"nproc={os.cpu_count()}"]
    assert [line.split()[-1] for line in lines[1:]] == ["d1", "d2"]
