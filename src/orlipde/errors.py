"""Exception types shared across the library."""


class OrlipdeError(Exception):
    """Base class for all library-specific errors."""


class InvalidYoungFunctionError(OrlipdeError):
    """A candidate Young function violates a structural requirement."""


class RangeError(OrlipdeError):
    """A requested value lies outside the numerically trusted range."""


class UnstableEstimateError(OrlipdeError):
    """A limit estimate produced a non-monotone or inconsistent trace."""

    def __init__(self, message, trace=None):
        self.trace = trace
        super().__init__(message)


class EmbeddingWindowError(OrlipdeError):
    """No reflexive embedding window: an index estimate hit the range edge."""


class BracketError(OrlipdeError):
    """A root or infimum bracket could not be established."""


class ResolutionError(OrlipdeError):
    """The grid is too coarse to resolve the requested operation."""


class NotEllipticError(OrlipdeError):
    """The characteristic form changes sign over the sampled directions."""


class CapabilityError(OrlipdeError):
    """The requested (dimension, order, operator) combination is not shipped."""


class CalibrationError(OrlipdeError):
    """Singular-kernel local-term calibration left too large a residual."""


class InvalidKernelError(OrlipdeError):
    """A singular kernel failed the zero-mean cancellation requirement."""


class DivergenceError(OrlipdeError):
    """The fixed-point iteration diverged; carries the partial report."""

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class ConfigError(OrlipdeError):
    """An experiment configuration could not be parsed or validated."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
