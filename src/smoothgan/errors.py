"""Exception types shared across the package."""


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
