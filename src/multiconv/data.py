"""Synthetic utterance corpus: token strings rendered as noisy frame templates.

Each vocabulary token owns a frozen Gaussian template over the feature bins.
An utterance is its token templates repeated ``frames_per_token`` times with
fresh Gaussian noise on top, so the mapping from frames to tokens is
learnable but not trivial.

On disk a split is three files:

* ``<split>.f32``  raw little-endian float32 frames, all utterances
  concatenated row-major [total_frames, n_mels]
* ``<split>.json`` manifest: feature geometry plus per-utterance frame
  offsets, lengths, and token ids
* ``<split>.txt``  one line per utterance, ``<id> <tok> <tok> ...``

The generating :class:`~multiconv.config.DataSpec` is stored alongside as
``data_spec.json``. Generation is deterministic in ``spec.seed``; the
templates and each split use independently spawned streams so changing one
split size never perturbs another split.

Every corpus file is written at a temporary name beside its target and
renamed over it, so regenerating a directory never truncates a file that a
loaded split still maps. There is no fsync: a corpus is rebuilt from its
spec. A loaded split maps its frame file read-only instead of reading it:
its utterances' features are views into the mapping, and only the frames a
run touches are read from disk. The file's byte size must be exactly
``total_frames * n_mels * 4``; any other size raises
:class:`~multiconv.errors.IntegrityError`.
"""

from __future__ import annotations

import json
import mmap
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import DataSpec
from .errors import (MANIFEST_ERRORS, ContractError, IntegrityError, manifest_count,
                     manifest_tiling, replacing)

SPLITS = ("train", "dev", "test")


@dataclass
class Utterance:
    uid: str
    feats: np.ndarray  # [n_frames, n_mels] float32
    tokens: list[int]


def _seed_streams(spec: DataSpec) -> dict[str, np.random.SeedSequence]:
    """The corpus's independent streams, spawned from ``spec.seed`` in this
    order: the token templates, then train, dev and test."""
    return dict(zip(("templates", *SPLITS), np.random.SeedSequence(spec.seed).spawn(4)))


def token_templates(spec: DataSpec) -> np.ndarray:
    """The frozen per-token feature templates, shape [vocab, n_mels]."""
    rng = np.random.default_rng(_seed_streams(spec)["templates"])
    return rng.normal(0.0, 1.0, size=(spec.vocab, spec.n_mels))


def _write_split(out: Path, split: str, spec: DataSpec, count: int,
                 templates: np.ndarray, ss: np.random.SeedSequence) -> None:
    """Render ``count`` utterances and write the split's three files. Each
    utterance's frames go to disk as soon as they are drawn; only the
    manifest entries and the transcript lines are kept."""
    rng = np.random.default_rng(ss)
    entries, lines = [], []
    offset = 0
    with replacing(out / f"{split}.f32") as frames:
        for i in range(count):
            n_tokens = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
            tokens = rng.integers(1, spec.vocab + 1, size=n_tokens)
            clean = np.repeat(templates[tokens - 1], spec.frames_per_token, axis=0)
            noisy = clean + rng.normal(0.0, spec.noise_std, size=clean.shape)
            frames.write(noisy.astype("<f4"))
            uid = f"{split}-{i:06d}"
            ids = [int(t) for t in tokens]
            entries.append({"id": uid, "offset": offset, "frames": len(noisy), "tokens": ids})
            lines.append(" ".join([uid, *map(str, ids)]))
            offset += len(noisy)
    manifest = {"n_mels": spec.n_mels, "total_frames": offset, "utterances": entries}
    with replacing(out / f"{split}.json") as fh:
        fh.write((json.dumps(manifest, indent=2) + "\n").encode())
    with replacing(out / f"{split}.txt") as fh:
        fh.write(("\n".join(lines) + "\n").encode())


def generate_dataset(spec: DataSpec, out_dir, force: bool = False) -> None:
    """Render and write all three splits plus the spec used to make them.

    Refuses to touch a non-empty output directory unless ``force`` is set.
    """
    spec.validate()
    out = Path(out_dir)
    if not force and out.is_dir() and any(out.iterdir()):
        raise ContractError(
            f"output dir {out} is not empty; pass force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    templates, streams = token_templates(spec), _seed_streams(spec)
    for split, count in zip(SPLITS, (spec.n_train, spec.n_dev, spec.n_test)):
        _write_split(out, split, spec, count, templates, streams[split])
    spec.save(out / "data_spec.json")


def load_spec(data_dir) -> DataSpec:
    return DataSpec.load(Path(data_dir) / "data_spec.json")


def _read_manifest(path: Path):
    """``(n_mels, total_frames, [(id, offset, frames, tokens), ...])`` from a
    split manifest. A manifest that is not UTF-8 JSON, lacks a field, holds a
    value of the wrong type, or does not tile its ``total_frames``
    (``manifest_tiling``) raises :class:`IntegrityError`."""
    try:
        manifest = json.loads(path.read_text())
        entries = []
        for e in manifest["utterances"]:
            if type(e["id"]) is not str:
                raise TypeError(f"expected a string id, got {e['id']!r}")
            entries.append((e["id"], manifest_count(e["offset"]),
                            manifest_count(e["frames"]),
                            [manifest_count(t) for t in e["tokens"]]))
        total_frames = manifest_count(manifest["total_frames"])
        manifest_tiling([(uid, lo, lo + n) for uid, lo, n, _ in entries], total_frames)
        return manifest_count(manifest["n_mels"]), total_frames, entries
    except MANIFEST_ERRORS as exc:
        raise IntegrityError(
            f"{path.name} is not a valid split manifest ({type(exc).__name__}: {exc})") from None


def _read_transcripts(path: Path) -> list[tuple[str, list[int]]]:
    """``[(id, tokens), ...]``, in file order, from a split's text file of
    ``<id> <tok> ...`` lines. Text that is not UTF-8, a blank line, or a
    token that is not an integer raises :class:`IntegrityError`."""
    try:
        transcripts = []
        for line in path.read_text().splitlines():
            uid, *tokens = line.split()
            transcripts.append((uid, [int(t) for t in tokens]))
        return transcripts
    except ValueError as exc:  # decoding and unpacking errors are ValueErrors too
        raise IntegrityError(
            f"{path.name} is not a valid transcript file ({type(exc).__name__}: {exc})") from None


def _map_frames(path: Path, total_frames: int, n_mels: int) -> np.ndarray:
    """The frame file as a read-only float32 [total_frames, n_mels] view of
    its memory map. A file of any other byte size raises
    :class:`IntegrityError`. The size is taken from the open file, so the
    check and the map see the same file."""
    expected = total_frames * n_mels * 4
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise IntegrityError(
                f"{path.name} holds {size} bytes, manifest expects {expected}")
        # mmap cannot map an empty file; zero frames need no bytes
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if size else b""
    return np.frombuffer(buf, dtype="<f4").reshape(total_frames, n_mels)


def load_split(data_dir, split: str) -> list[Utterance]:
    """Read one split back, cross-checking sizes and the text transcripts,
    whose lines must be the manifest's ids and tokens, entry by entry. The
    utterances' features are read-only views of the mapped frame file."""
    if split not in SPLITS:
        raise ContractError(f"split must be one of {SPLITS}, got {split!r}")
    root = Path(data_dir)
    n_mels, total_frames, entries = _read_manifest(root / f"{split}.json")
    frames = _map_frames(root / f"{split}.f32", total_frames, n_mels)
    if _read_transcripts(root / f"{split}.txt") != [(uid, ids) for uid, _, _, ids in entries]:
        raise IntegrityError(f"transcript mismatch between {split}.json and {split}.txt")
    return [Utterance(uid=uid, feats=frames[lo:lo + n], tokens=tokens)
            for uid, lo, n, tokens in entries]
