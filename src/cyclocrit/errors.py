"""Exception types shared across the package.

Validation and bound errors are usage-level (CLI exit code 1); mismatch
errors mean two exact computations disagreed and always indicate a bug
somewhere (CLI exit code 2).
"""


class CyclocritError(Exception):
    """Base class for all package errors."""


class NotPrimeError(CyclocritError):
    pass


class NotPrimitiveError(CyclocritError):
    pass


class DisconnectedError(CyclocritError):
    pass


class BoundExceededError(CyclocritError):
    """A requested computation exceeds a configured size bound."""


class FactorizationError(BoundExceededError):
    """An integer resisted factorization within the configured effort."""


class ZeroResidueError(CyclocritError):
    """Digit expansion requested for a residue divisible by q-1."""


class UndefinedSumError(CyclocritError):
    """Carry count requested for a pair whose sum is divisible by q-1."""


class BadResidueError(CyclocritError):
    """The index-3 pipeline needs ell = 3 and p congruent to 2 mod 3."""


class PrecisionError(CyclocritError):
    """float64 rounding too coarse to resolve a required value."""


class MismatchError(CyclocritError):
    """Two independent exact computations disagreed."""


class MethodMismatchError(MismatchError):
    """Formula pipeline and brute-force oracle produced different groups."""


class ConservationError(MismatchError):
    """Multiplicity output violates the count/valuation conservation pair."""
