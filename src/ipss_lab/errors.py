"""Exception types shared across the toolkit."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class RangeError(ValueError):
    """A requested value lies outside the representable/reachable range."""


class NumericsError(RuntimeError):
    """A quadrature or tabulation step could not reach its tolerance."""


class DynamicsError(RuntimeError):
    """The right-hand side of a system produced a nonfinite value."""


class PlanError(ValueError):
    """A sampling plan is inconsistent with the system it targets."""


class ModelError(RuntimeError):
    """A declared model property (envelope, assumption) failed a probe."""


class CandidateError(RuntimeError):
    """A Lyapunov candidate produced a nonfinite or invalid evaluation."""


class ConfigError(ValueError):
    """An experiment configuration failed validation."""
