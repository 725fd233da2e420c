"""Exception types raised by the geometry and map-checking operations."""


class GeometryError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedOrder(GeometryError):
    """Field order outside the built-in modulus list."""


class DimensionTooSmall(GeometryError):
    """Projective dimension below 2."""


class UnsupportedDimension(GeometryError):
    """Operation only defined for a specific projective dimension."""


class EqualPoints(GeometryError):
    """Two distinct points were required."""


class EqualLines(GeometryError):
    """Two distinct lines were required."""


class RepeatedPoints(GeometryError):
    """Pairwise distinct points were required."""


class NotAPlane(GeometryError):
    """Plane id outside the space's plane list (`projspace.planes`)."""


class PointNotInPlane(GeometryError):
    """The plane must pass through the given point."""


class IncompatibleSpaces(GeometryError):
    """Source and target spaces do not fit the requested construction."""


class NotLineConsistent(GeometryError):
    """A point map does not send some line into a single line."""


class PreconditionViolated(GeometryError):
    """The checked map does not satisfy the operation's hypotheses."""


class NotInStar(GeometryError):
    """Arguments must be distinct lines through the given point."""


class BadConfiguration(GeometryError):
    """Point/line/plane arguments do not form the required configuration."""


class TooLarge(GeometryError):
    """Instance exceeds the supported desk-scale size."""


class BudgetExceeded(GeometryError):
    """Search node budget exhausted."""


class FormatError(GeometryError):
    """Malformed interchange file; carries the offending line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


__all__ = [
    "GeometryError",
    "UnsupportedOrder",
    "DimensionTooSmall",
    "UnsupportedDimension",
    "EqualPoints",
    "EqualLines",
    "RepeatedPoints",
    "NotAPlane",
    "PointNotInPlane",
    "IncompatibleSpaces",
    "NotLineConsistent",
    "PreconditionViolated",
    "NotInStar",
    "BadConfiguration",
    "TooLarge",
    "BudgetExceeded",
    "FormatError",
]
