"""Exception types shared across the package."""


class AlphascreenError(Exception):
    """Base class for all library errors."""


class DimensionError(AlphascreenError, ValueError):
    """A matrix or panel does not have the required shape."""


class RankDeficientError(AlphascreenError, ValueError):
    """A design matrix is numerically rank deficient.

    Carries the estimated condition number of the offending matrix in
    ``condition``.
    """

    def __init__(self, message: str, condition: float = float("inf")):
        super().__init__(message)
        self.condition = condition


class NoFactorStructureError(AlphascreenError, RuntimeError):
    """The adjusted-return spectrum carries no usable factor signal."""


class AlignmentError(AlphascreenError, ValueError):
    """Return and factor panels disagree on the time index."""


class DegenerateNormalizerError(AlphascreenError, ValueError):
    """A self-normalizer collapsed to zero, so no statistic can be formed."""


class NegativeControlError(AlphascreenError, ValueError):
    """The negative control set is empty or too small to identify premia."""
