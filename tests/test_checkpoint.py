"""Binary checkpoint format: bit-exact round trips and corruption detection."""

import dataclasses
import json

import numpy as np
import pytest

from multiconv.autodiff import Tensor
from multiconv.checkpoint import (
    MAGIC,
    load_arrays,
    load_model,
    save_arrays,
    save_model,
)
from multiconv.config import EncoderConfig
from multiconv.encoder import build_model
from multiconv.errors import ContractError, IntegrityError

RNG = np.random.default_rng(41)


def tiny_cfg(**overrides):
    base = dict(dim=12, layers=1, heads=2, d_inter=16, d_ffn=20,
                kernels=(3, 5), n_mels=7, vocab=4)
    base.update(overrides)
    return EncoderConfig(**base)


def test_round_trip_is_bitwise_identity(tmp_path):
    path = tmp_path / "arrays.mckpt"
    named = [
        ("w", RNG.normal(size=(3, 4)).astype(np.float32)),
        ("b", RNG.normal(size=7)),
        ("scalar", np.float64(3.5).reshape(())),
    ]
    save_arrays(path, named)
    back = load_arrays(path)
    assert list(back) == ["w", "b", "scalar"]
    for name, arr in named:
        assert back[name].dtype == arr.dtype
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()


def test_non_finite_patterns_survive(tmp_path):
    arr = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-45], dtype=np.float32)
    path = tmp_path / "weird.mckpt"
    save_arrays(path, [("x", arr)])
    back = load_arrays(path)["x"]
    assert np.array_equal(back.view(np.uint32), arr.view(np.uint32))


def test_duplicate_names_rejected(tmp_path):
    with pytest.raises(ContractError):
        save_arrays(tmp_path / "d.mckpt", [("x", np.zeros(2)), ("x", np.ones(2))])


def test_integer_arrays_rejected(tmp_path):
    with pytest.raises(ContractError):
        save_arrays(tmp_path / "i.mckpt", [("x", np.arange(3))])


def test_bad_magic_detected(tmp_path):
    path = tmp_path / "bad.mckpt"
    save_arrays(path, [("x", np.zeros(2))])
    blob = path.read_bytes()
    path.write_bytes(b"ZIP!" + blob[4:])
    with pytest.raises(IntegrityError, match="magic"):
        load_arrays(path)


def test_future_version_detected(tmp_path):
    path = tmp_path / "v9.mckpt"
    save_arrays(path, [("x", np.zeros(2))])
    blob = bytearray(path.read_bytes())
    blob[4:8] = (9).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match="version"):
        load_arrays(path)


def test_truncated_payload_detected(tmp_path):
    path = tmp_path / "trunc.mckpt"
    save_arrays(path, [("x", RNG.normal(size=100))])
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(IntegrityError, match="overruns"):
        load_arrays(path)


def test_trailing_payload_bytes_detected(tmp_path):
    path = tmp_path / "trail.mckpt"
    save_arrays(path, [("x", RNG.normal(size=100))])
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(IntegrityError, match="manifest"):
        load_arrays(path)


def _entries(edit):
    """A manifest rewrite that applies ``edit`` to the decoded entry list."""
    def rewrite(text):
        entries = json.loads(text)
        edit(entries)
        return json.dumps(entries).encode()
    return rewrite


CORRUPT_MANIFESTS = {
    "truncated": lambda text: text[:-7],
    "not-utf8": lambda text: b"\xff\xfe" + text[2:],
    "deeply-nested": lambda text: b"[" * 100_000,  # json raises RecursionError
    "missing-field": _entries(lambda e: e[1].pop("shape")),
    "object-at-top-level": lambda text: b'{"entries": ' + text + b"}",
    "string-offset": _entries(lambda e: e[1].update(offset="16")),
    "negative-offset": _entries(lambda e: e[0].update(offset=-8)),
    "negative-dimension": _entries(lambda e: e[0].update(shape=[-1])),
    "duplicate-name": _entries(lambda e: e[1].update(name="a")),
    # the entries must tile the payload: "b" inside "a"'s bytes, "b" at "a"'s
    # offset, and payload bytes that no entry holds
    "moved-offset": _entries(lambda e: e[1].update(offset=8)),
    "repeated-offset": _entries(lambda e: e[1].update(offset=e[0]["offset"])),
    "bytes-past-the-last-entry": _entries(lambda e: e[1].update(shape=[2, 2])),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_MANIFESTS))
def test_corrupt_manifest_raises_integrity_error(tmp_path, case):
    path = tmp_path / "m.mckpt"
    save_arrays(path, [("a", np.arange(2.0)), ("b", np.ones((2, 3)))])
    blob = path.read_bytes()
    man_len = int.from_bytes(blob[8:12], "little")
    text = CORRUPT_MANIFESTS[case](blob[12:12 + man_len])
    path.write_bytes(blob[:8] + len(text).to_bytes(4, "little") + text + blob[12 + man_len:])
    with pytest.raises(IntegrityError, match="manifest"):
        load_arrays(path)


def test_model_round_trip_restores_outputs(tmp_path):
    cfg = tiny_cfg()
    src = build_model(dataclasses.replace(cfg, seed=7))
    path = tmp_path / "model.mckpt"
    save_model(path, src)

    dst = build_model(dataclasses.replace(cfg, seed=8))  # different init on purpose
    x = RNG.normal(size=(20, cfg.n_mels)).astype(np.float32)
    before = dst(Tensor(x)).data
    load_model(path, dst)
    after = dst(Tensor(x)).data

    assert not np.array_equal(before, after)
    assert np.array_equal(after, src(Tensor(x)).data)
    for (_, a), (_, b) in zip(src.named_parameters(), dst.named_parameters()):
        assert np.array_equal(a.data, b.data)


def test_model_load_checks_names(tmp_path):
    path = tmp_path / "model.mckpt"
    save_model(path, build_model(dataclasses.replace(tiny_cfg(), seed=0)))
    other = build_model(dataclasses.replace(tiny_cfg(layers=2), seed=0))
    with pytest.raises(IntegrityError, match="names differ"):
        load_model(path, other)


def test_model_load_checks_shapes(tmp_path):
    cfg = tiny_cfg()
    path = tmp_path / "model.mckpt"
    model = build_model(dataclasses.replace(cfg, seed=0))
    save_model(path, model)
    mutated = load_arrays(path)
    first = next(iter(mutated))
    pairs = [(n, a if n != first else a.reshape(a.shape[::-1]))
             for n, a in mutated.items()]
    save_arrays(path, pairs)
    target = build_model(dataclasses.replace(cfg, seed=0))
    with pytest.raises(IntegrityError, match="shape"):
        load_model(path, target)


def test_model_load_checks_dtypes(tmp_path):
    cfg = tiny_cfg()
    path = tmp_path / "model.mckpt"
    save_model(path, build_model(dataclasses.replace(cfg, seed=0)))
    pairs = [(n, a.astype(np.float64)) for n, a in load_arrays(path).items()]
    save_arrays(path, pairs)
    with pytest.raises(IntegrityError, match="dtype"):
        load_model(path, build_model(dataclasses.replace(cfg, seed=0)))


@pytest.mark.parametrize("failure", [OSError("disk full"), KeyboardInterrupt()])
def test_failed_write_keeps_the_previous_checkpoint(tmp_path, monkeypatch, failure):
    path = tmp_path / "model.mckpt"
    model = build_model(tiny_cfg(seed=0))
    save_model(path, model)
    before = path.read_bytes()
    for t in model.parameters():
        t.data = t.data + 1.0

    def fail(fd):
        raise failure

    # the new bytes are written, then the write fails before the rename
    monkeypatch.setattr("multiconv.errors.os.fsync", fail)
    with pytest.raises(type(failure)):
        save_model(path, model)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.mckpt"]
    load_model(path, build_model(tiny_cfg(seed=0)))


def test_empty_checkpoint_round_trips(tmp_path):
    path = tmp_path / "empty.mckpt"
    save_arrays(path, [])
    assert load_arrays(path) == {}
    assert path.read_bytes()[:4] == MAGIC
