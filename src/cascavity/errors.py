"""Exception types shared across the package."""


class CascavityError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(CascavityError, ValueError):
    """A physical or geometric parameter is outside its valid domain."""


class SingularBoundaryError(CascavityError, ArithmeticError):
    """The boundary-value solve hit a numerically singular transfer matrix."""


class SingularSystemError(CascavityError, ArithmeticError):
    """The steady-state linear system is singular beyond the handled degeneracy."""


class FitFailureError(CascavityError, RuntimeError):
    """A least-squares fit did not converge.

    Carries the best iterate so callers can inspect or reuse it.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class PoleSearchError(CascavityError, RuntimeError):
    """A transmission-pole search did not converge, or two starts reached the same pole."""


class ConfigError(CascavityError, ValueError):
    """An experiment configuration file is invalid."""
