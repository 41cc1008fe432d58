"""Exception hierarchy shared by all hypervoronoi modules."""


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class ArityMismatch(GeometryError):
    """Coordinate vector has the wrong length for the operation."""


class DomainViolation(GeometryError):
    """A point violates its model's domain constraint.

    Carries `constraint` (human-readable description) and `excess`
    (how far outside the constraint the value is, when meaningful).
    """

    def __init__(self, message, constraint=None, excess=None):
        super().__init__(message)
        self.constraint = constraint
        self.excess = excess


class ModelMismatch(GeometryError):
    """Operands live in different models or have different curvatures."""


class CoincidentSites(GeometryError):
    """Two sites coincide where distinct sites are required."""


class DegenerateSurface(GeometryError):
    """Quadric has no real zero set (nonpositive squared radius)."""


class UnsupportedPath(GeometryError):
    """Requested surface transport is outside the Klein-hub family."""


class NumericalUnderflow(GeometryError):
    """Point too close to the Klein boundary for a stable conversion."""


class DimensionUnsupported(GeometryError):
    """The requested geometry or output is not available in this dimension."""


class DuplicateSites(GeometryError):
    """Input point set contains coincident points."""


class EmptySites(GeometryError):
    """An operation needs at least one site."""


class NoExplicitGeometry(GeometryError):
    """Operation needs a diagram built with explicit cell geometry."""


class ExactArithmeticUnavailable(GeometryError):
    """Requested exact-rational arithmetic on a path needing square roots."""


class ParseError(GeometryError):
    """Malformed or schema-violating document."""
