"""Exception types shared across the package, and the guards on size and scalar arguments."""

import math
import numbers

CELL_CAP = 10 ** 7      # 80 MB of float64: the most cells an outside size may ask for


class SmoothganError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SmoothganError):
    pass


class EmptySupport(SmoothganError):
    pass


class NegativeWeight(SmoothganError):
    pass


class UnknownKind(SmoothganError):
    pass


class ProblemTooLarge(SmoothganError):
    pass


def refuse_over(count, what: str, cap: int = CELL_CAP) -> None:
    """Raise ProblemTooLarge if count (of what) exceeds cap; call it before allocating."""
    if count > cap:
        shown = f"{count:.3g}" if isinstance(count, float) else count    # ints exactly
        raise ProblemTooLarge(f"{shown} {what} exceed the cap of {cap}")


def need_count(value, name: str, least: int, error: type[SmoothganError]) -> None:
    """Raise error unless value is an integer (not a bool) of at least least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{name} must be an int >= {least}, got {value!r}")


def need_positive(value, name: str, error: type[SmoothganError]) -> None:
    """Raise error unless value is a finite real above 0 (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise error(f"{name} must be finite and positive, got {value!r}")


class SolverFailed(SmoothganError):
    pass


class NonZeroMass(SmoothganError):
    pass


class PointOffSupport(SmoothganError):
    pass


class GradientUnsupported(SmoothganError):
    pass


class GridMismatch(SmoothganError):
    pass


class NonPositiveAlpha(SmoothganError):
    pass


class NonPositiveBeta(SmoothganError):
    pass


class OrderTooLarge(SmoothganError):
    pass


class QuadratureDomainTooSmall(SmoothganError):
    pass


class LengthMismatch(SmoothganError):
    pass


class NonSmoothActivation(SmoothganError):
    pass


class DegenerateConstants(SmoothganError):
    pass


class PreconditionViolated(SmoothganError, ValueError):
    """An argument outside the function's domain (a ValueError, as bad values are)."""


class ConfigError(SmoothganError, ValueError):
    """Malformed configuration or input text (a ValueError, as parse errors are)."""


class MalformedTrace(SmoothganError):
    pass
