"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible or non-conforming shapes."""


class DomainError(ValueError):
    """A value lies outside the mathematically admissible domain."""


class ConvergenceError(RuntimeError):
    """An iterative procedure ran out of iterations.

    Carries the best estimate reached so far in ``best`` (may be None).
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class CsvLoadError(ValueError):
    """A CSV file could not be ingested; ``row``/``col`` locate the problem."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class DegenerateScaleError(ValueError):
    """A rescaling segment is constant, so no affine map to [0, 1] exists."""


class DegenerateVarianceError(ValueError):
    """Targets are constant in some dimension, so NMSE is undefined."""


class GenerationError(RuntimeError):
    """Random generation failed repeatedly (divergent or degenerate draws)."""
