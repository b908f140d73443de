"""Checkpoint container: named float arrays in one self-describing binary file.

Layout, all little-endian:

    bytes 0..3    magic ``MCFK``
    bytes 4..7    format version (u32), currently 1
    bytes 8..11   manifest length in bytes (u32)
    manifest      UTF-8 JSON: [{"name", "dtype", "shape", "offset"}, ...]
                  with byte offsets into the payload
    payload       raw C-order array bytes, concatenated

Arrays are written and restored bit-exactly; the round trip is the identity
on every finite and non-finite float pattern. A file is written whole to a
temporary file beside it and then renamed over it, so a failed or
interrupted write leaves the previous file as it was.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import (MANIFEST_ERRORS, ContractError, IntegrityError, manifest_count,
                     manifest_tiling, replacing)

MAGIC = b"MCFK"
VERSION = 1
_DTYPES = {"<f4", "<f8"}


def save_arrays(path, named: list[tuple[str, np.ndarray]]) -> None:
    """Write ``(name, array)`` pairs; order is preserved in the manifest."""
    seen = set()
    entries = []
    chunks = []
    offset = 0
    for name, arr in named:
        if name in seen:
            raise ContractError(f"duplicate checkpoint entry {name!r}")
        seen.add(name)
        dtype = arr.dtype.newbyteorder("<").str
        if dtype not in _DTYPES:
            raise ContractError(f"{name!r} has unsupported dtype {arr.dtype}")
        data = np.ascontiguousarray(arr).astype(dtype, copy=False).tobytes()
        entries.append({
            "name": name,
            "dtype": dtype,
            "shape": list(arr.shape),
            "offset": offset,
        })
        chunks.append(data)
        offset += len(data)
    manifest = json.dumps(entries).encode("utf-8")
    with replacing(path, fsync=True) as fh:
        fh.write(MAGIC)
        fh.write(VERSION.to_bytes(4, "little"))
        fh.write(len(manifest).to_bytes(4, "little"))
        fh.write(manifest)
        for chunk in chunks:
            fh.write(chunk)


def _read_manifest(path, raw: bytes, payload_size: int):
    """``[(name, dtype, shape, start, stop), ...]`` from a checkpoint manifest.
    A manifest that is not UTF-8 JSON, is not a list of entry objects, repeats
    a name, holds a field of the wrong type or an unknown dtype, or does not
    tile the payload (``manifest_tiling``) raises :class:`IntegrityError`."""
    try:
        manifest = json.loads(raw.decode("utf-8"))
        if type(manifest) is not list:
            raise TypeError(f"expected a list of entries, got {type(manifest).__name__}")
        entries = []
        names = set()
        for e in manifest:
            name, dtype, shape = e["name"], e["dtype"], e["shape"]
            if type(name) is not str or name in names:
                raise ValueError(f"entry name {name!r} is not a unique string")
            names.add(name)
            if type(dtype) is not str or dtype not in _DTYPES:
                raise ValueError(f"entry {name!r} has dtype {dtype!r}")
            if type(shape) is not list:
                raise TypeError(f"entry {name!r} has shape {shape!r}")
            shape = tuple(manifest_count(d) for d in shape)
            start = manifest_count(e["offset"])
            entries.append((name, dtype, shape, start,
                            start + math.prod(shape) * np.dtype(dtype).itemsize))
        manifest_tiling([(name, start, stop) for name, _, _, start, stop in entries], payload_size)
        return entries
    except MANIFEST_ERRORS as exc:
        raise IntegrityError(
            f"{path}: not a valid checkpoint manifest ({type(exc).__name__}: {exc})") from None


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into a name -> array dict (insertion-ordered)."""
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise IntegrityError(f"{path}: bad magic {blob[:4]!r}, not a checkpoint")
    version = int.from_bytes(blob[4:8], "little")
    if version != VERSION:
        raise IntegrityError(f"{path}: unsupported checkpoint version {version}")
    man_len = int.from_bytes(blob[8:12], "little")
    payload = blob[12 + man_len:]
    entries = _read_manifest(path, blob[12:12 + man_len], len(payload))
    return {name: np.frombuffer(payload[start:stop], dtype=dtype).reshape(shape).copy()
            for name, dtype, shape, start, stop in entries}


def save_model(path, model) -> None:
    save_arrays(path, [(name, t.data) for name, t in model.named_parameters()])


def load_model(path, model) -> None:
    """Restore parameters in place; names, shapes, and dtypes must all match."""
    stored = load_arrays(path)
    params = dict(model.named_parameters())
    missing = set(params) - set(stored)
    extra = set(stored) - set(params)
    if missing or extra:
        raise IntegrityError(
            f"{path}: parameter names differ from the model "
            f"(missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]})")
    for name, tensor in params.items():
        arr = stored[name]
        if arr.shape != tensor.data.shape:
            raise IntegrityError(
                f"{path}: {name} has shape {arr.shape}, model wants {tensor.data.shape}")
        if arr.dtype != tensor.data.dtype:
            raise IntegrityError(
                f"{path}: {name} has dtype {arr.dtype}, model wants {tensor.data.dtype}")
        tensor.data = arr
