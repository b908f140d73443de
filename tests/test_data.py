"""Synthetic corpus generation, the on-disk layout, and integrity checks."""

import hashlib
import json
import mmap
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import multiconv
from multiconv.config import DataSpec
from multiconv.data import generate_dataset, load_spec, load_split, token_templates
from multiconv.errors import ConfigError, ContractError, IntegrityError, replacing


def small_spec(**overrides):
    base = dict(vocab=5, n_train=12, n_dev=4, n_test=3, min_tokens=2, max_tokens=4,
                frames_per_token=6, n_mels=7, noise_std=0.25, seed=9)
    base.update(overrides)
    return DataSpec(**base)


@pytest.fixture()
def corpus(tmp_path):
    spec = small_spec()
    generate_dataset(spec, tmp_path)
    return spec, tmp_path


def test_round_trip_preserves_everything(corpus):
    spec, root = corpus
    assert load_spec(root) == spec
    train = load_split(root, "train")
    dev = load_split(root, "dev")
    test = load_split(root, "test")
    assert len(train) == spec.n_train
    assert len(dev) == spec.n_dev
    assert len(test) == spec.n_test
    for utt in train + dev + test:
        assert utt.feats.dtype == np.float32
        assert utt.feats.shape == (len(utt.tokens) * spec.frames_per_token, spec.n_mels)
        assert spec.min_tokens <= len(utt.tokens) <= spec.max_tokens
        assert all(1 <= t <= spec.vocab for t in utt.tokens)


def test_generation_is_deterministic(tmp_path):
    spec = small_spec()
    generate_dataset(spec, tmp_path / "a")
    generate_dataset(spec, tmp_path / "b")
    for split in ("train", "dev", "test"):
        assert ((tmp_path / "a" / f"{split}.f32").read_bytes()
                == (tmp_path / "b" / f"{split}.f32").read_bytes())
        assert ((tmp_path / "a" / f"{split}.txt").read_text()
                == (tmp_path / "b" / f"{split}.txt").read_text())


def _dir_digest(root):
    """sha256 over the sorted file names and the bytes of each file."""
    digest = hashlib.sha256()
    for path in sorted(root.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_corpus_bytes_are_pinned(tmp_path):
    # any change to the draw order, the frame bytes, the manifest or the
    # transcripts moves this digest
    generate_dataset(DataSpec(n_train=50, n_dev=10, n_test=10, seed=3), tmp_path)
    assert _dir_digest(tmp_path) == (
        "b001ee6602990ae8a225976ff7200e324d9b88ac70198a22eb0b5a6558720ed6")


def test_generation_does_not_stage_a_split(tmp_path):
    # each utterance goes to disk as it is drawn, so the traced peak stays far
    # below the size of the frame file (about 10 MB here)
    tracemalloc.start()
    try:
        generate_dataset(DataSpec(n_train=400, n_dev=8, n_test=8, seed=1), tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "train.f32").stat().st_size / 4


def test_different_seeds_differ(tmp_path):
    generate_dataset(small_spec(seed=1), tmp_path / "a")
    generate_dataset(small_spec(seed=2), tmp_path / "b")
    assert ((tmp_path / "a" / "train.f32").read_bytes()
            != (tmp_path / "b" / "train.f32").read_bytes())


def test_dev_split_independent_of_train_size(tmp_path):
    # template, train, and dev streams are spawned independently, so growing
    # the train split must not change a single dev byte
    generate_dataset(small_spec(n_train=4), tmp_path / "a")
    generate_dataset(small_spec(n_train=40), tmp_path / "b")
    assert ((tmp_path / "a" / "dev.f32").read_bytes()
            == (tmp_path / "b" / "dev.f32").read_bytes())
    assert ((tmp_path / "a" / "dev.txt").read_text()
            == (tmp_path / "b" / "dev.txt").read_text())


def test_templates_are_stable_per_seed():
    spec = small_spec()
    t1 = token_templates(spec)
    t2 = token_templates(spec)
    assert t1.shape == (spec.vocab, spec.n_mels)
    assert np.array_equal(t1, t2)
    assert not np.array_equal(t1, token_templates(small_spec(seed=77)))


def test_frames_follow_their_token_template(corpus):
    spec, root = corpus
    templates = token_templates(spec)
    utt = load_split(root, "train")[0]
    for i, tok in enumerate(utt.tokens):
        block = utt.feats[i * spec.frames_per_token:(i + 1) * spec.frames_per_token]
        resid = block - templates[tok - 1]
        # noise_std=0.25: residual stays well under the template spread
        assert np.abs(resid).mean() < 3 * spec.noise_std


def test_unknown_split_rejected(corpus):
    _, root = corpus
    with pytest.raises(ContractError):
        load_split(root, "validation")


def test_zero_noise_yields_pure_template_frames(tmp_path):
    spec = small_spec(noise_std=0.0)
    generate_dataset(spec, tmp_path)
    templates = token_templates(spec).astype(np.float32)
    for utt in load_split(tmp_path, "train"):
        expected = np.repeat(templates[np.array(utt.tokens) - 1],
                             spec.frames_per_token, axis=0)
        assert np.array_equal(utt.feats, expected)


def test_refuses_nonempty_output_dir(tmp_path):
    generate_dataset(small_spec(), tmp_path)
    with pytest.raises(ContractError, match="not empty"):
        generate_dataset(small_spec(seed=1), tmp_path)
    # the refusal happens before any write, so the corpus is intact
    assert load_spec(tmp_path) == small_spec()
    generate_dataset(small_spec(seed=1), tmp_path, force=True)
    assert load_spec(tmp_path) == small_spec(seed=1)


@pytest.mark.parametrize("resize", [lambda raw: raw[:-1], lambda raw: raw[:-3],
                                    lambda raw: raw[:-8], lambda raw: b"",
                                    lambda raw: raw + bytes(4)],
                         ids=["cut-1", "cut-3", "cut-8", "empty", "extra-4"])
def test_truncated_frame_file_detected(corpus, resize):
    # a length that is not a multiple of 4 is caught too, and an empty file
    # never reaches mmap, which cannot map 0 bytes
    _, root = corpus
    raw = (root / "train.f32").read_bytes()
    (root / "train.f32").write_bytes(resize(raw))
    with pytest.raises(IntegrityError, match="train.f32"):
        load_split(root, "train")


def test_zero_frames_load_an_empty_split(tmp_path):
    manifest = {"n_mels": 7, "total_frames": 0,
                "utterances": [{"id": "dev-000000", "offset": 0, "frames": 0, "tokens": []}]}
    (tmp_path / "dev.json").write_text(json.dumps(manifest))
    (tmp_path / "dev.txt").write_text("dev-000000\n")
    (tmp_path / "dev.f32").write_bytes(b"")
    [utt] = load_split(tmp_path, "dev")
    assert utt.feats.shape == (0, 7) and utt.feats.dtype == np.float32
    assert not utt.feats.flags.writeable


def _owner(arr):
    """The object that holds an array's bytes, past its views' bases and
    the buffer numpy takes them through."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


def test_a_loaded_split_maps_its_frames_read_only(corpus):
    spec, root = corpus
    train = load_split(root, "train")
    raw = np.fromfile(root / "train.f32", dtype="<f4").reshape(-1, spec.n_mels)
    assert np.array_equal(np.concatenate([u.feats for u in train]), raw)
    for utt in train:
        # a view of the mapping: no frame bytes are copied into the process
        assert isinstance(_owner(utt.feats), mmap.mmap)
        assert utt.feats.dtype == np.float32 and not utt.feats.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            utt.feats[0, 0] = 0.0


_REGENERATE = textwrap.dedent("""
    import sys
    import numpy as np
    from multiconv.config import DataSpec
    from multiconv.data import generate_dataset, load_split

    root = sys.argv[1]
    generate_dataset(DataSpec(n_train=60, n_dev=4, n_test=4, seed=5), root)
    old = load_split(root, "train")
    copies = [np.array(u.feats) for u in old]
    new_spec = DataSpec(n_train=6, n_dev=4, n_test=4, seed=6)
    generate_dataset(new_spec, root, force=True)
    # the last old utterances lie past the end of the new, smaller frame file:
    # had it been truncated in place, reading them would raise SIGBUS
    assert all(np.array_equal(u.feats, c) for u, c in zip(old, copies))
    new = load_split(root, "train")
    assert len(new) == 6
    assert not np.array_equal(new[0].feats, copies[0])
    fresh = root + "-fresh"
    generate_dataset(new_spec, fresh)
    assert all(np.array_equal(a.feats, b.feats) for a, b in zip(new, load_split(fresh, "train")))
    print("ok")
""")


def test_a_loaded_split_survives_a_forced_regeneration(tmp_path):
    # a separate process, so that a SIGBUS fails this test instead of pytest
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(multiconv.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _REGENERATE, str(tmp_path / "corpus")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert proc.stdout == "ok\n"


def test_a_failed_replace_keeps_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "train.f32"
    path.write_bytes(b"old")
    with pytest.raises(OSError, match="disk full"):
        with replacing(path) as fh:
            fh.write(b"new bytes")
            raise OSError("disk full")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["train.f32"]


def test_manifest_overrun_detected(corpus):
    _, root = corpus
    manifest = json.loads((root / "dev.json").read_text())
    manifest["utterances"][-1]["frames"] += 1000
    (root / "dev.json").write_text(json.dumps(manifest))
    with pytest.raises(IntegrityError, match="overruns"):
        load_split(root, "dev")


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-40])


def _non_utf8(path):
    path.write_bytes(b"\xff\xfe" + path.read_bytes())


def _deeply_nested(path):
    path.write_text("[" * 100_000)  # json raises RecursionError


def _drop_key(path):
    manifest = json.loads(path.read_text())
    del manifest["total_frames"]
    path.write_text(json.dumps(manifest))


def _ill_typed(path):
    manifest = json.loads(path.read_text())
    manifest["utterances"][0]["offset"] = "0"
    path.write_text(json.dumps(manifest))


def _moved_offset(path):
    # entry 1 at entry 0's frames: utterance 0's features under utterance 1's labels
    manifest = json.loads(path.read_text())
    manifest["utterances"][1]["offset"] = 0
    path.write_text(json.dumps(manifest))


def _repeated_offset(path):
    manifest = json.loads(path.read_text())
    entries = manifest["utterances"]
    entries[2]["offset"] = entries[1]["offset"]
    path.write_text(json.dumps(manifest))


def _trailing_frames(path):
    # frames past the last entry, counted in total_frames and present in the file
    manifest = json.loads(path.read_text())
    manifest["total_frames"] += 2
    path.write_text(json.dumps(manifest))
    with open(path.with_suffix(".f32"), "ab") as fh:
        fh.write(bytes(2 * manifest["n_mels"] * 4))


@pytest.mark.parametrize("corrupt", [_truncate, _non_utf8, _drop_key, _ill_typed,
                                     _deeply_nested, _moved_offset, _repeated_offset,
                                     _trailing_frames])
def test_corrupt_manifest_raises_integrity_error(corpus, corrupt):
    _, root = corpus
    corrupt(root / "dev.json")
    with pytest.raises(IntegrityError, match="dev.json"):
        load_split(root, "dev")


def _blank_line(path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], ""] + lines[1:]) + "\n")


def _non_integer_token(path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0] + " x"] + lines[1:]) + "\n")


@pytest.mark.parametrize("corrupt", [_non_utf8, _blank_line, _non_integer_token])
def test_corrupt_transcripts_raise_integrity_error(corpus, corrupt):
    _, root = corpus
    corrupt(root / "dev.txt")
    with pytest.raises(IntegrityError, match="dev.txt"):
        load_split(root, "dev")


def test_transcript_mismatch_detected(corpus):
    _, root = corpus
    lines = (root / "dev.txt").read_text().splitlines()
    parts = lines[0].split()
    parts[1] = str(int(parts[1]) % 5 + 1)  # shift one token
    lines[0] = " ".join(parts)
    (root / "dev.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(IntegrityError, match="transcript mismatch"):
        load_split(root, "dev")


def _extra_line(root):
    with open(root / "dev.txt", "a") as fh:
        fh.write("dev-999999 1 2 3\n")


def _duplicated_line(root):
    lines = (root / "dev.txt").read_text().splitlines()
    (root / "dev.txt").write_text("\n".join([lines[0], *lines]) + "\n")


def _repeated_manifest_id(root):
    # entry 1 becomes a copy of entry 0's id and tokens, over entry 1's frames
    manifest = json.loads((root / "dev.json").read_text())
    first, second = manifest["utterances"][:2]
    second["id"], second["tokens"] = first["id"], first["tokens"]
    (root / "dev.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("corrupt", [_extra_line, _duplicated_line, _repeated_manifest_id])
def test_transcripts_must_be_the_manifest_entries_in_order(corpus, corrupt):
    _, root = corpus
    corrupt(root)
    with pytest.raises(IntegrityError, match="transcript mismatch"):
        load_split(root, "dev")


def test_spec_validation_rejects_unlearnable_geometry(tmp_path):
    # fewer than 7 frames cannot pass the two stride-2 downsampling stages
    with pytest.raises(ConfigError):
        generate_dataset(small_spec(min_tokens=1, frames_per_token=4), tmp_path)
    with pytest.raises(ConfigError):
        generate_dataset(small_spec(min_tokens=5, max_tokens=4), tmp_path)
    with pytest.raises(ConfigError):
        generate_dataset(small_spec(vocab=0), tmp_path)
