"""Exception types shared across the package."""


class UcyclicError(Exception):
    """Base class for all package-specific errors."""


class TooLarge(UcyclicError):
    """An exhaustive computation exceeds its hard size cap."""


class UnsupportedK(UcyclicError):
    """Operation not available at this nilpotency index k."""


class DimensionTooLarge(TooLarge):
    """Exhaustive weight enumeration rejected (dimension above the cap)."""


class BadDescriptor(UcyclicError):
    """A code descriptor failed validation."""


class MinDistOfTrivial(UcyclicError):
    """Minimum distance of the zero code is undefined."""
