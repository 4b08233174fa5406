"""Exception hierarchy shared across the package, plus the one repeated-value check."""

from collections import Counter
from typing import Hashable, Iterable


class SemcomError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(SemcomError):
    """A rule set, scenario or run config, or a parameter, is malformed."""


class FeasibilityError(SemcomError):
    """The requested exact computation is over the enumeration T or cap, or the bit budget."""


class UndefinedMetricError(SemcomError):
    """A metric was requested on an empty trace or degenerate input."""


def reject_repeats(what: str, values: Iterable[Hashable]) -> None:
    """ConfigurationError naming, in sorted order, every value given twice."""
    repeated = sorted(v for v, n in Counter(values).items() if n > 1)
    if repeated:
        raise ConfigurationError("duplicate %s: %s" % (what, ", ".join(map(str, repeated))))
