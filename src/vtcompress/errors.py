"""Exception types shared across the compression pipeline."""


class CompressionError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPoolingError(CompressionError):
    """Requested pooling output dimensions are not achievable."""


class AdapterShapeError(CompressionError):
    """A query's width differs from the width of the tokens it scores.

    Tokens that pass through a projector before scoring are scored by
    folding the projector into the query rows (see ``query_select``)."""


class InvalidConfigError(CompressionError):
    """A configuration value is outside its allowed range."""


class InvalidWindowError(CompressionError):
    """Frames inside one pruning window do not share a common shape."""


class EmptyVideoError(CompressionError):
    """The input contains no frames."""


class InvalidNeedleError(CompressionError):
    """Needle frame is incompatible with the haystack it is inserted into."""


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
