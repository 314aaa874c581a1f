"""Exception hierarchy shared across the package."""


class ExitwalkError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ExitwalkError, ValueError):
    """Input outside the model domain, or a model function returned a non-finite value."""


class ConfigurationError(ExitwalkError, ValueError):
    """Inconsistent parameters, e.g. an infinite horizon where the drift forbids it."""


class ConvergenceError(ExitwalkError, RuntimeError):
    """A series or quadrature failed to reach the requested tolerance within its cap."""


class DegenerateInputError(ExitwalkError, ValueError):
    """A quantity the sampler needs is lost at float precision: an underflowed survival
    probability or squared hitting distance, or grid points too close to tell apart."""


class RunawayError(ExitwalkError, RuntimeError):
    """A sampler exceeded its work cap; indicates pathological bounds or a bug, not bad luck."""
