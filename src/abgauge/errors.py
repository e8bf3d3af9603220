"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all abgauge failures."""


class ComputationError(ToolkitError):
    """A numerical operation failed or was asked to leave its valid domain."""


class AxisCrossing(ComputationError):
    """Point or path too close to the z-axis for a multi-valued gauge."""


class NotClosed(ComputationError):
    """A loop's first and last points do not coincide within tolerance."""


class OnShell(ComputationError):
    """Field requested on the solenoid shell, where it has no value."""


class NonFinite(ComputationError):
    """A sampled point or integrand value is NaN or infinite."""


class NoConvergence(ComputationError):
    """Adaptive refinement exhausted its budget before reaching tolerance."""


class NoLimit(ComputationError):
    """Shrinking-loop circulation sequence has no Cauchy limit."""


class DomainViolation(ComputationError):
    """Requested evaluation or stencil leaves the field's valid domain."""


class EndpointMismatch(ComputationError):
    """Two paths that must share endpoints do not."""


class ParseError(ToolkitError):
    """Scenario file is malformed or references unknown identifiers."""
