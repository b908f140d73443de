"""Synthetic corpus generation, the on-disk layout, and integrity checks."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from multiconv.config import DataSpec
from multiconv.data import generate_dataset, load_spec, load_split, token_templates
from multiconv.errors import ConfigError, ContractError, IntegrityError


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


def test_truncated_frame_file_detected(corpus):
    _, root = corpus
    raw = (root / "train.f32").read_bytes()
    (root / "train.f32").write_bytes(raw[:-8])
    with pytest.raises(IntegrityError, match="train.f32"):
        load_split(root, "train")


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


@pytest.mark.parametrize("corrupt", [_truncate, _non_utf8, _drop_key, _ill_typed,
                                     _deeply_nested])
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


def test_spec_validation_rejects_unlearnable_geometry(tmp_path):
    # fewer than 7 frames cannot pass the two stride-2 downsampling stages
    with pytest.raises(ConfigError):
        generate_dataset(small_spec(min_tokens=1, frames_per_token=4), tmp_path)
    with pytest.raises(ConfigError):
        generate_dataset(small_spec(min_tokens=5, max_tokens=4), tmp_path)
    with pytest.raises(ConfigError):
        generate_dataset(small_spec(vocab=0), tmp_path)
