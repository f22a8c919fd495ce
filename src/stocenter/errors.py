"""Exception hierarchy shared across the package.

GuardExceeded subclasses signal that an exact/enumerative routine was asked
for more work than its desk-scale guard allows; the CLI maps them to exit
code 3.
"""


class StocenterError(Exception):
    """Base class for all package errors."""


class SchemaError(StocenterError):
    """Malformed instance/shape JSON (unknown field, bad value, ...)."""


class DimensionMismatch(StocenterError):
    pass


class GuardExceeded(StocenterError):
    """An enumeration guard was exceeded."""


class InstanceTooLarge(GuardExceeded):
    pass


class CombinationGuardExceeded(GuardExceeded):
    pass


class StateSpaceGuardExceeded(GuardExceeded):
    pass


class EnumerationGuardExceeded(GuardExceeded):
    pass


class NonFiniteValue(StocenterError):
    """An expected objective came out inf or NaN."""


class EmptyRealization(StocenterError):
    pass


class ZeroCostCandidate(StocenterError):
    pass


class CaseMismatch(StocenterError):
    pass
