"""Exception types shared across the package, the checks of the JSON
manifests that the split and checkpoint readers share, and the atomic
replace that every file writer uses (``metrics.jsonl``, an append-only log,
is emptied when a run starts and then appended to)."""

import os
from contextlib import contextmanager
from pathlib import Path


class ShapeError(ValueError):
    """Operand shapes or lengths are incompatible with the operation."""


class ConfigError(ValueError):
    """A configuration value is invalid (even kernel, bad group count, ...)."""


class ContractError(ValueError):
    """An API precondition was violated by the caller."""


class StateError(RuntimeError):
    """An object is in the wrong state for the requested action."""


class IntegrityError(RuntimeError):
    """A cross-check between measured and expected values failed."""


# What decoding and checking a corrupt manifest can raise: ValueError covers
# bad UTF-8 and bad JSON, RecursionError deeply nested JSON. Each reader turns
# these into an IntegrityError that names its file.
MANIFEST_ERRORS = (KeyError, TypeError, ValueError, RecursionError)


def manifest_count(value) -> int:
    """``value`` if it is a non-negative JSON integer, else ``TypeError``."""
    if type(value) is not int or value < 0:
        raise TypeError(f"expected a non-negative integer, got {value!r}")
    return value


def manifest_tiling(entries, end: int) -> None:
    """``ValueError`` unless the ``(name, start, stop)`` entries lay the payload
    out back to back, as the writers do: the first from 0, each from where the
    one before stopped, the last to ``end``. A moved entry reads others' bytes."""
    at = 0
    for name, start, stop in entries:
        if stop > end:
            raise ValueError(f"entry {name!r} overruns the payload ({stop} > {end})")
        if start != at:
            raise ValueError(f"entry {name!r} starts at {start}, not at {at}")
        at = stop
    if at != end:
        raise ValueError(f"the entries stop at {at}, short of the payload's end ({end})")


@contextmanager
def replacing(path, fsync: bool = False):
    """A binary file opened at a temporary name beside ``path`` and renamed
    over it when the block ends. If the block raises, the temporary goes and
    ``path`` is left as it was; a reader that has the old file open or mapped
    keeps reading the old bytes, because the rename gives ``path`` a new inode
    instead of truncating the old one. ``fsync`` flushes the bytes to disk
    before the rename."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
