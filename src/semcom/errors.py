"""Exception hierarchy shared across the package, plus the one repeated-value check."""

from collections import Counter
from typing import Hashable, Iterable


class SemcomError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(SemcomError):
    """A vocabulary, rule set, or scenario config is malformed."""


class EnumerationInfeasibleError(SemcomError):
    """The requested exact computation is outside the enumeration bound."""


class FeasibilityError(SemcomError):
    """The requested exact computation exceeds a configured budget."""


class UndefinedMetricError(SemcomError):
    """A metric was requested on an empty trace or degenerate input."""


def reject_repeats(what: str, values: Iterable[Hashable]) -> None:
    """ConfigurationError naming, in sorted order, every value given twice."""
    repeated = sorted(v for v, n in Counter(values).items() if n > 1)
    if repeated:
        raise ConfigurationError("duplicate %s: %s" % (what, ", ".join(map(str, repeated))))
