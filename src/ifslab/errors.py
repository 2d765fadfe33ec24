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
    """No bump-partition pitch down to the floor passed, or every pitch
    failed before the first lattice with more bumps than the cell budget.

    Carries the failed condition and the union box (d, 2) it failed on.
    """

    def __init__(self, message, condition, box):
        super().__init__(message)
        self.condition = condition
        self.box = box


class ConfigError(IfsLabError):
    """Malformed definition file or run configuration."""
