"""Shared exception and warning types."""


class PoleError(ValueError):
    """Evaluation requested at a pole of the function."""


class DomainError(ValueError):
    """Argument outside the supported domain."""


class GridTooCoarse(RuntimeError):
    """Discretization grid cannot carry the required spectral mass."""


class NearSingular(RuntimeError):
    """Matrix inversion requested too close to singularity."""


class SingularCayley(RuntimeError):
    """Cayley transform hit an eigenvalue at the excluded point."""


class QuadFailure(RuntimeError):
    """Numerical integration failed to reach the requested tolerance."""


class NonConvergenceWarning(UserWarning):
    """Sampler diagnostics suggest the chain has not converged."""


class DiscretizationWarning(UserWarning):
    """Reported value is within discretization error of a critical threshold."""
