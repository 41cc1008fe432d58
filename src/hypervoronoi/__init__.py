"""Hyperbolic Voronoi diagrams across the five standard models.

The diagram of a finite point set is computed as a Euclidean power
diagram on the unit-Klein chart, clipped to the unit ball; the
hemisphere route does the same with purely rational site arithmetic.
"""

from .bisectors import (
    ImplicitSurface,
    SurfaceClass,
    bisector,
    classify,
    evaluate,
    geodesic,
    sphere_center_radius,
    transport_surface,
)
from .conversions import (
    convert,
    drop_to_klein,
    lift_to_hemisphere,
    square_root_free,
)
from .errors import (
    ArityMismatch,
    CoincidentSites,
    DegenerateSurface,
    DimensionUnsupported,
    DomainViolation,
    DuplicateSites,
    EmptySites,
    ExactArithmeticUnavailable,
    GeometryError,
    ModelMismatch,
    NoExplicitGeometry,
    NumericalUnderflow,
    UnsupportedPath,
)
from .hvd import (
    DegeneracyReport,
    DelaunayComplex,
    ROUTE_HEMISPHERE,
    ROUTE_KLEIN,
    VerificationReport,
    VoronoiDiagram,
    delaunay,
    detect_degeneracies,
    nearest_site,
    verify,
    voronoi,
)
from .models import (
    Curvature,
    ModelPoint,
    ModelTag,
    UNIT_CURVATURE,
    distance,
    lorentz_inner,
    metric_tensor,
    validate_point,
)
from .power import (
    Halfspace,
    KLEIN_WEIGHT_SIGN_THRESHOLD,
    PowerComplex,
    PowerVertex,
    WeightedSite,
    build_complex,
    hemisphere_site_map,
    klein_site_map,
    locate,
    power_distance,
    radical_hyperplane,
)

__version__ = "0.1.0"
