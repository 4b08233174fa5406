"""Exception hierarchy shared across the package."""


class SemcomError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(SemcomError):
    """A vocabulary, rule set, or scenario config is malformed."""


class EnumerationInfeasibleError(SemcomError):
    """The requested exact computation is outside the enumeration bound."""


class FeasibilityError(SemcomError):
    """The requested exact computation exceeds a configured budget."""


class ContradictionError(SemcomError):
    """Evidence admits no compatible constituent."""


class UndefinedMetricError(SemcomError):
    """A metric was requested on an empty trace or degenerate input."""
