"""Exception types shared across the package."""


class NilDualError(Exception):
    """Base class for all package-specific errors."""


class GridTooSmallError(NilDualError):
    """Grid has too few nodes for the finite-difference stencils."""


class NonConformalError(NilDualError):
    """Maurer-Cartan data fails the conformality identity."""


class NonImmersionError(NilDualError):
    """Metric factor vanishes somewhere on the evaluation set."""


class VerticalPointError(NilDualError):
    """Spinor configuration corresponds to a vertical normal."""


class NonMinimalError(NilDualError):
    """Operation requires minimal-surface data (H = 0) and got H != 0."""


class HorizontalUmbrellaError(NilDualError):
    """The quadratic differential vanishes identically; no dual exists."""


class BranchContinuationError(NilDualError):
    """Square-root branch continuation failed at a located node."""


class ConfigError(NilDualError):
    """Invalid run configuration."""
