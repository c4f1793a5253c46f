"""Exception types shared across the compression pipeline.

The classes mirror the CLI's exit codes: ``FileFormatError``, ``OSError``
and ``MemoryError`` (a machine resource, as a full disk is) exit 2,
``InvalidConfigError`` and the base ``CompressionError`` exit 3, and
``BudgetInfeasibleError`` exits 4. A malformed array, an empty one included,
is a ``ValueError``, which the file readers raise as ``FileFormatError``.

``integer``, ``real`` and ``numbers`` hold the one rule for numeric settings:
no bool passes, a numpy number does, and callers store the Python number.
"""

import numpy as np


class CompressionError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfigError(CompressionError):
    """A setting or argument outside its allowed range or shape."""


class FileFormatError(CompressionError):
    """A serialized input file is malformed or truncated."""


class BudgetInfeasibleError(CompressionError):
    """The token budget cannot be met even after maximal pruning.

    Raised when the anchor frames alone hold more tokens than the budget
    leaves room for; carries both counts for diagnostics. When raised by
    ``compress``, ``stats`` holds the run's stage accounting up to the
    verdict, with ``tokens_final`` and ``total_reduction_rate`` set to None
    because no output exists.
    """

    def __init__(self, anchor_tokens: int, budget: int, stats=None):
        self.anchor_tokens = anchor_tokens
        self.budget = budget
        self.stats = stats
        super().__init__(
            f"anchor frames alone hold {anchor_tokens} tokens but only "
            f"{budget} fit in the budget"
        )


def integer(value, name: str, kind: str = "an integer", ok=None, got=None) -> int:
    """``value``, an int or numpy integer, as the Python int of equal value. Else,
    or if ``ok`` refuses it, raises "{name} must be {kind}, got {got or value!r}"."""
    return _number(value, name, kind, ok, got, (int, np.integer))


def real(value, name: str, kind: str = "a real number", ok=None, got=None) -> int | float:
    """As ``integer``; a float or numpy floating passes too, as a Python float."""
    return _number(value, name, kind, ok, got, (int, float, np.integer, np.floating))


def _number(value, name, kind, ok, got, types):
    # Python counts a bool as an int, but no setting takes one.
    if isinstance(value, types) and not isinstance(value, bool):
        value = float(value) if isinstance(value, (float, np.floating)) else int(value)
        if ok is None or ok(value):
            return value
    raise InvalidConfigError(f"{name} must be {kind}, got {value if got is None else got!r}")


def numbers(values, number, name: str, kind: str, ok=None):
    """Each of ``values`` through ``number``, all of them shown in a message; as
    given when each comes back as itself (a Python number does), else a tuple."""
    python = tuple(number(v, name, kind, ok, values) for v in values)
    return values if all(p is v for p, v in zip(python, values)) else python
