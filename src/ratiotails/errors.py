"""Exception types shared across the package."""


class RatioTailsError(Exception):
    """Base class for all package errors."""


class DomainError(RatioTailsError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class GridError(RatioTailsError, ValueError):
    """An evaluation grid violates a structural requirement (e.g. not
    closed under reciprocation, not strictly increasing)."""


class RootFindError(RatioTailsError, RuntimeError):
    """Bracketed root finding failed to locate an inverse value."""


class RangeError(RatioTailsError, ValueError):
    """A value lies outside the range of the transform being inverted."""


class InsufficientTailError(RatioTailsError, ValueError):
    """Too few tail observations to produce a defensible estimate."""


class NonpositiveSampleError(RatioTailsError, ValueError):
    """Samples must be strictly positive for log-based tail estimators."""


class DegenerateTailError(RatioTailsError, ValueError):
    """All exceedances coincide; no tail shape can be estimated."""


class NonIdentifiableError(RatioTailsError, RuntimeError):
    """Two candidate families score within the identifiability margin.

    The per-family scores are attached so callers can report the tie.
    """

    def __init__(self, message: str, scores=None):
        super().__init__(message)
        self.scores = dict(scores or {})


class RejectionRateError(RatioTailsError, RuntimeError):
    """The nonpositive-ratio rejection rate exceeded the hard limit."""


class NonpositiveRatioError(RatioTailsError, RuntimeError):
    """A nonpositive demand/supply ratio was drawn under the abort policy."""


class WindowError(RatioTailsError, ValueError):
    """A window specification violates the sampling-scale separation rule."""


class TimestampError(RatioTailsError, ValueError):
    """Price-series timestamps are too irregular for the requested windows."""


class InputFormatError(RatioTailsError, ValueError):
    """A CSV or manifest file does not match its documented schema."""


class InputMismatchError(RatioTailsError, ValueError):
    """An input file no longer matches the sha256 its manifest recorded."""
