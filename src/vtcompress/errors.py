"""Exception types shared across the compression pipeline.

The classes mirror the CLI's exit codes: ``FileFormatError``, ``OSError``
and ``MemoryError`` (a machine resource, as a full disk is) exit 2,
``InvalidConfigError`` and the base ``CompressionError`` exit 3, and
``BudgetInfeasibleError`` exits 4. A malformed array, an empty one included,
is a ``ValueError``, which the file readers raise as ``FileFormatError``.
"""


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
