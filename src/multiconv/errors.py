"""Exception types shared across the package, and the checks of the JSON
manifests that the split and checkpoint readers share."""


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
