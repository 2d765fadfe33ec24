"""Exception types shared across the package."""


class IfsLabError(Exception):
    """Base class for all package errors."""


class NotAContraction(IfsLabError):
    """Linear part has singular values outside (0, 1)."""


class DepthOverflow(IfsLabError):
    """A requested cell depth exceeds the configured cell budget."""


class DepthMismatch(IfsLabError):
    """Operands sampled at incompatible cylinder depths."""


class NoConvergence(IfsLabError):
    """An iterative solver hit its iteration cap before reaching tolerance.

    Raised by `measure.markov_fixpoint`.  Operator norms are computed
    exactly from the block structure and never raise it.
    """


class CoverFailure(IfsLabError):
    """Bump-partition rectangles underflowed the minimum pitch.

    Carries the obstruction point and the condition that failed there.
    """

    def __init__(self, message, obstruction=None, condition=None):
        super().__init__(message)
        self.obstruction = obstruction
        self.condition = condition


class ConfigError(IfsLabError):
    """Malformed definition file or run configuration."""
