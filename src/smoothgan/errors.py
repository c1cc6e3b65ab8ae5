"""Exception types shared across the package, and the one guard on problem size."""

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


class EmptyDomain(SmoothganError):
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
