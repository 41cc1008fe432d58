"""SVG rendering of planar diagrams in the Klein, Poincare and upper
half-plane models.

Rendering consumes a diagram document only: facet segments live on the
unit-Klein chart and are mapped pointwise into the requested model;
curved boundaries are drawn as native SVG arcs with center and radius
taken from the transported implicit surface (circles are circles, not
polylines).  A polyline fallback (`samples_per_arc` points along the
true curve) covers near-degenerate arcs only.
"""

from __future__ import annotations

import math

from .bisectors import (
    ImplicitSurface,
    SurfaceClass,
    classify_rows,
    scale_surface,
    sphere_center_radius,
    transport_surface,
)
from .conversions import from_hub, hub_coords, lift_to_hemisphere
from .documents import DiagramDocument
from .errors import DimensionUnsupported
from .models import Curvature, ModelTag, UNIT_CURVATURE
from .scalars import as_floats, row_floats

RENDER_MODELS = (ModelTag.KLEIN, ModelTag.POINCARE, ModelTag.UPPER_HALF_SPACE)

STYLE = {
    "boundary": 'stroke="#1a1a1a" stroke-width="1.2" fill="none"',
    "domain": 'stroke="#6688aa" stroke-width="1.5" fill="none"',
    "site": 'fill="#c03030" stroke="none"',
}


def _chart_to_model(point, model: ModelTag):
    return as_floats(from_hub(lift_to_hemisphere(point), model, UNIT_CURVATURE).coords)


class _Viewport:
    """World (unit model) to SVG pixel transform; y axis flipped."""

    def __init__(self, width, height, scale, cx, cy, wx, wy):
        self.width = width
        self.height = height
        self.scale = scale
        self.cx, self.cy = cx, cy  # pixel anchor
        self.wx, self.wy = wx, wy  # world anchor

    def to_px(self, p):
        return (
            self.cx + self.scale * (p[0] - self.wx),
            self.cy - self.scale * (p[1] - self.wy),
        )


def _ball_viewport(width):
    height = width
    radius_px = 0.45 * min(width, height)
    return _Viewport(width, height, radius_px, width / 2.0, height / 2.0, 0.0, 0.0)


def _upper_viewport(width, points):
    xs = [p[0] for p in points] or [0.0]
    ys = [p[1] for p in points] or [1.0]
    x0, x1 = min(xs), max(xs)
    y1 = max(ys)
    span_x = max(x1 - x0, 1e-9)
    span_y = max(y1, 1e-9)
    pad = 0.08 * max(span_x, span_y)
    scale = 0.9 * width / (span_x + 2 * pad)
    height = int(math.ceil(scale * (span_y + 2 * pad))) + 20
    vp = _Viewport(width, height, scale, width * 0.05, height - 10, x0 - pad, 0.0)
    return vp


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def _line(vp, p0, p1, style):
    (x0, y0), (x1, y1) = vp.to_px(p0), vp.to_px(p1)
    return (
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
        f"{style} />"
    )


def _polyline(vp, pts, style):
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (vp.to_px(p) for p in pts))
    return f'<polyline points="{coords}" {style} />'


def _arc(vp, p0, p1, mid, center, radius, style):
    s0 = vp.to_px(p0)
    s1 = vp.to_px(p1)
    sm = vp.to_px(mid)
    sc = vp.to_px(center)
    r = vp.scale * radius
    a0 = math.atan2(s0[1] - sc[1], s0[0] - sc[0])
    a1 = math.atan2(s1[1] - sc[1], s1[0] - sc[0])
    am = math.atan2(sm[1] - sc[1], sm[0] - sc[0])
    d1 = (a1 - a0) % (2 * math.pi)
    dm = (am - a0) % (2 * math.pi)
    if dm <= d1:
        sweep, extent = 1, d1
    else:
        sweep, extent = 0, 2 * math.pi - d1
    large = 1 if extent > math.pi else 0
    return (
        f'<path d="M {_fmt(s0[0])} {_fmt(s0[1])} '
        f'A {_fmt(r)} {_fmt(r)} 0 {large} {sweep} {_fmt(s1[0])} {_fmt(s1[1])}" '
        f"{style} />"
    )


def _chart_samples(v0, v1, count):
    return [
        tuple(a + (k / (count - 1)) * (b - a) for a, b in zip(v0, v1))
        for k in range(count)
    ]


# Facet segments extend to the construction window; only their trace in
# the disk is drawable.  The clip radius stays off the boundary so model
# conversions of the endpoints remain finite.
CLIP_RADIUS = 1.0 - 1e-6


def _clip_segment_to_disk(v0, v1, radius=CLIP_RADIUS):
    """Intersect segment [v0, v1] with the disk |x| <= radius, or None."""
    dx = [b - a for a, b in zip(v0, v1)]
    aa = sum(c * c for c in dx)
    if aa == 0.0:
        return None
    bb = 2.0 * sum(a * c for a, c in zip(v0, dx))
    cc = sum(a * a for a in v0) - radius * radius
    disc = bb * bb - 4.0 * aa * cc
    if disc <= 0.0:
        return None
    root = math.sqrt(disc)
    t0 = max(0.0, (-bb - root) / (2.0 * aa))
    t1 = min(1.0, (-bb + root) / (2.0 * aa))
    if t1 <= t0:
        return None
    w0 = tuple(a + t0 * c for a, c in zip(v0, dx))
    w1 = tuple(a + t1 * c for a, c in zip(v0, dx))
    return w0, w1


def render_svg(
    doc: DiagramDocument,
    model: ModelTag,
    width: int = 800,
    samples_per_arc: int = 24,
) -> str:
    """Render a d=2 diagram document as an SVG 1.1 drawing."""
    if doc.dimension != 2:
        raise DimensionUnsupported(f"rendering needs d = 2, got d = {doc.dimension}")
    if model not in RENDER_MODELS:
        raise DimensionUnsupported(
            f"rendering supports {', '.join(m.value for m in RENDER_MODELS)}"
        )
    samples_per_arc = max(3, int(samples_per_arc))
    curvature = Curvature(doc.input.curvature)
    input_points = doc.input.model_points()
    site_chart = [as_floats(hub_coords(p))[1:] for p in input_points]
    sites = [_chart_to_model(p, model) for p in site_chart]

    # boundary surfaces transported to the render model (unit scale)
    surfaces = {}
    for pair, lam, a, b, _cls in doc.boundaries:
        s = ImplicitSurface(lam, a, b, doc.input.model)
        unit = scale_surface(s, curvature, to_unit=True)
        surfaces[pair] = transport_surface(unit, model)
    # their classes, all at once (`classify` of each); the Klein model draws straight lines
    classes = {}
    if surfaces and model is not ModelTag.KLEIN:
        rows = [row_floats(surface.coefficients()) for surface in surfaces.values()]
        classes = dict(zip(surfaces, classify_rows(rows, model)))

    # facet curves, as drawable primitives in the render model
    elements = []
    world_points = list(sites)
    curves = []
    for pair, facet in doc.facets.items():
        clipped = _clip_segment_to_disk(as_floats(facet[0]), as_floats(facet[1]))
        if clipped is None:
            continue
        v0, v1 = clipped
        p0 = _chart_to_model(v0, model)
        p1 = _chart_to_model(v1, model)
        midc = tuple(0.5 * (a + b) for a, b in zip(v0, v1))
        pm = _chart_to_model(midc, model)
        world_points.extend([p0, p1, pm])
        kind = "line"
        center = radius = None
        if classes.get(pair) == SurfaceClass.SPHERE.value:
            center, radius = sphere_center_radius(surfaces[pair])
            kind = "arc" if math.isfinite(radius) and radius < 50.0 else "sampled"
        curves.append((kind, pair, v0, v1, p0, p1, pm, center, radius))
        if kind == "arc":
            world_points.append((center[0], center[1] + radius))

    if model is ModelTag.UPPER_HALF_SPACE:
        # curves near the chart point (0, ..., 1) run toward infinity in
        # this model; frame the sites and let the curves exit the canvas
        site_span = max([1.0] + [abs(c) for p in sites for c in p])
        framed = sites + [
            p for p in world_points if max(abs(c) for c in p) <= 20.0 * site_span
        ]
        vp = _upper_viewport(width, framed)
    else:
        vp = _ball_viewport(width)

    body = []
    if model is ModelTag.UPPER_HALF_SPACE:
        x_lo = vp.wx - 1.0
        x_hi = vp.wx + (vp.width / vp.scale) + 1.0
        body.append(_line(vp, (x_lo, 0.0), (x_hi, 0.0), STYLE["domain"]))
    else:
        cx, cy = vp.to_px((0.0, 0.0))
        body.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(vp.scale)}" '
            f"{STYLE['domain']} />"
        )

    for kind, pair, v0, v1, p0, p1, pm, center, radius in curves:
        if kind == "line":
            body.append(_line(vp, p0, p1, STYLE["boundary"]))
        elif kind == "arc":
            body.append(_arc(vp, p0, p1, pm, center, radius, STYLE["boundary"]))
        else:
            pts = [
                _chart_to_model(c, model)
                for c in _chart_samples(v0, v1, samples_per_arc)
            ]
            body.append(_polyline(vp, pts, STYLE["boundary"]))

    for p in sites:
        x, y = vp.to_px(p)
        body.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" {STYLE["site"]} />'
        )

    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{vp.width}" height="{int(vp.height)}" '
        f'viewBox="0 0 {vp.width} {int(vp.height)}">'
    )
    return head + "\n" + "\n".join(body) + "\n</svg>\n"
