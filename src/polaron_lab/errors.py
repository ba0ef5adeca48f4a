"""Exception hierarchy shared by all polaron-lab modules.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map them onto distinct exit codes (config -> 2, sizing -> 3,
everything else -> 1).
"""

__all__ = [
    "PolaronLabError", "GridMismatchError", "UnsupportedKernelError", "MeasureConsistencyError",
    "ConvergenceError", "ProjectionError", "SizingError", "SchemaError", "BlowUpError",
]


class PolaronLabError(Exception):
    """Base class for all errors raised by this package."""


class GridMismatchError(PolaronLabError):
    """Two fields/operators live on incompatible grids."""


class UnsupportedKernelError(PolaronLabError):
    """Requested an interaction kernel that is intentionally not provided."""


class MeasureConsistencyError(PolaronLabError):
    """Dual evaluations of the same quantity disagree beyond tolerance.

    This fires when the momentum-space and position-space evaluations of the
    Hartree energy drift apart, which signals broken lattice measure weights
    somewhere upstream.
    """


class ConvergenceError(PolaronLabError):
    """An iterative solver did not reach its tolerance within max_iter."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ProjectionError(PolaronLabError):
    """Positivity projection hit an iterate with genuine sign changes."""


class SizingError(PolaronLabError):
    """A requested computation exceeds its configured resource budget."""


class SchemaError(PolaronLabError):
    """A run configuration failed validation."""

    def __init__(self, message, keys=()):
        super().__init__(message)
        self.keys = tuple(keys)


class BlowUpError(PolaronLabError):
    """Time integration produced NaN/Inf values."""

    def __init__(self, message, last_valid_time=None):
        super().__init__(message)
        self.last_valid_time = last_valid_time
