"""Exception types shared across the package."""


class HurwitzError(Exception):
    """Base class for all package-specific errors."""


class IndexTooLarge(HurwitzError):
    """Requested index exceeds the exponential-enumeration guard."""


class NonIntegerResult(HurwitzError):
    """A closed-form expression that must be an integer failed integrality.

    This always signals an implementation or transcription bug, never a
    property of the input.
    """


class PrecisionExhausted(HurwitzError):
    """Internal precision escalation hit its cap before certification."""


class UnsupportedD(HurwitzError):
    """Classification theorems only apply for quasi-period d >= 2."""
