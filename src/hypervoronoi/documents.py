"""On-disk formats: point-set inputs and self-contained diagram documents.

Both formats are JSON.  Numbers are plain JSON floats in float64 mode
and "numerator/denominator" strings in exact-rational mode, so exact
documents round-trip losslessly and byte-identically across platforms.
A diagram document carries everything rendering or re-checking needs;
consumers never have to rebuild the diagram.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .bisectors import DegenerateSurface, classify
from .errors import ParseError
from .models import Curvature, ModelPoint, ModelTag
from .power import Halfspace
from .scalars import is_exact

SCALAR_FLOAT = "float64"
SCALAR_EXACT = "exact-rational"
DIAGRAM_FORMAT = "hypervoronoi-diagram/1"


def encode_number(x, exact: bool):
    if exact:
        f = x if isinstance(x, Fraction) else Fraction(x)
        return f"{f.numerator}/{f.denominator}"
    return float(x)


def decode_number(v):
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"bad rational literal {v!r}") from e
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ParseError(f"expected a finite number, got {v!r}")
    return float(v)


def encode_vector(xs, exact: bool):
    if exact:
        return [encode_number(x, True) for x in xs]
    return list(map(float, xs))


def decode_vector(vs):
    if not isinstance(vs, list):
        raise ParseError(f"expected a coordinate array, got {vs!r}")
    return tuple(decode_number(v) for v in vs)


@dataclass
class PointSetDocument:
    dimension: int
    curvature: object
    model: ModelTag
    scalar: str
    points: list

    def model_points(self) -> list[ModelPoint]:
        curv = Curvature(self.curvature)
        return [ModelPoint(self.model, p, curv) for p in self.points]

    @property
    def exact(self) -> bool:
        return self.scalar == SCALAR_EXACT

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "curvature": encode_number(self.curvature, self.exact),
            "model": self.model.value,
            "scalar": self.scalar,
            "points": [encode_vector(p, self.exact) for p in self.points],
        }


def parse_point_set(data) -> PointSetDocument:
    if not isinstance(data, dict):
        raise ParseError("point set document must be a JSON object")
    try:
        dimension = data["dimension"]
        model = ModelTag.parse(str(data["model"]))
        scalar = data.get("scalar", SCALAR_FLOAT)
        curvature = decode_number(data.get("curvature", -1.0))
        raw_points = data["points"]
    except KeyError as e:
        raise ParseError(f"missing field {e.args[0]!r}") from e
    if scalar not in (SCALAR_FLOAT, SCALAR_EXACT):
        raise ParseError(f"unknown scalar kind {scalar!r}")
    if not isinstance(dimension, int) or isinstance(dimension, bool):
        raise ParseError(f"dimension must be a JSON integer, got {dimension!r}")
    if dimension < 2:
        raise ParseError(f"dimension must be >= 2, got {dimension}")
    if not isinstance(raw_points, list) or not raw_points:
        raise ParseError("points must be a non-empty array")
    arity = dimension + 1 if model.ambient else dimension
    points = []
    for k, row in enumerate(raw_points):
        p = decode_vector(row)
        if len(p) != arity:
            raise ParseError(
                f"point {k} has {len(p)} coordinates, {model.value} in "
                f"dimension {dimension} needs {arity}"
            )
        if scalar == SCALAR_EXACT:
            p = tuple(Fraction(c) for c in p)
        points.append(p)
    if scalar == SCALAR_EXACT:
        curvature = Fraction(curvature)
    return PointSetDocument(dimension, curvature, model, scalar, points)


def read_json(path):
    """Parse a JSON file; unreadable or invalid files raise ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ParseError(f"{path}: invalid JSON: {e}") from e
    except OSError as e:
        raise ParseError(f"{path}: {e}") from e


def load_point_set(path) -> PointSetDocument:
    return parse_point_set(read_json(path))


def _nonfinite_error(xs):
    bad = next(x for x in xs if not math.isfinite(x))
    return ValueError("Out of range float values are not JSON compliant: " + repr(bad))


def _key(k) -> str:
    """A dict key that is not a string, written as `json.dumps` writes it."""
    if k is None or isinstance(k, (int, float)):
        return encode_basestring_ascii(_encode(k, ""))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


# Writers of flat lists whose items all have one of these exact types.
_FLAT_WRITERS = {float: float.__repr__, int: int.__repr__, str: encode_basestring_ascii}


def _join_flat(xs, sep: str):
    """`xs` written and joined in one call when all its items are plain
    floats, plain ints or plain strings; else None."""
    kinds = set(map(type, xs))
    write = _FLAT_WRITERS.get(kinds.pop()) if len(kinds) == 1 else None
    if write is None:
        return None
    body = sep.join(map(write, xs))
    if write is float.__repr__ and "n" in body:  # nan, inf, -inf
        raise _nonfinite_error(xs)
    return body


def _encode(o, indent: str) -> str:
    if isinstance(o, float):
        text = float.__repr__(o)
        if "n" in text:
            raise _nonfinite_error((o,))
        return text
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        body = _join_flat(o, sep)
        if body is None:
            body = sep.join([_encode(x, inner) for x in o])
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = indent + "  "
        items = [
            (encode_basestring_ascii(k) if isinstance(k, str) else _key(k)) + ": " + _encode(v, inner)
            for k, v in o.items()
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def dump_json(data) -> str:
    """`json.dumps(data, indent=2, allow_nan=False) + "\\n"`, byte for byte,
    from `str.join` and the C string escaper instead of the pure-Python
    indenting encoder.  A flat list of floats, ints or strings is written
    in one call.  NaN and infinities raise ValueError, objects `json.dumps`
    cannot write TypeError (circular containers are not detected)."""
    return _encode(data, "") + "\n"


# --- diagram documents --------------------------------------------------------

def _surface_class_name(surface) -> str:
    try:
        return classify(surface).value
    except DegenerateSurface:
        return "degenerate"


def delaunay_section(dual) -> dict:
    """The `delaunay` section of a diagram document (and of CLI `delaunay`)."""
    return {
        "edges": [list(e) for e in sorted(dual.edges)],
        "faces": [sorted(f) for f in dual.faces],
        "is_triangulation": dual.is_triangulation,
    }


def diagram_to_document(
    diagram,
    dual=None,
    degeneracies=None,
    verification=None,
    input_doc: PointSetDocument | None = None,
) -> dict:
    """Serialize a VoronoiDiagram (plus optional sections) to a document."""
    cx = diagram.complex
    exact = all(
        is_exact(c) for s in cx.sites for c in s.center + (s.weight,)
    )
    scalar = SCALAR_EXACT if exact else SCALAR_FLOAT
    if input_doc is None:
        input_doc = PointSetDocument(
            dimension=diagram.dimension,
            curvature=diagram.curvature.kappa,
            model=diagram.model,
            scalar=scalar,
            points=[p.coords for p in diagram.sites],
        )
    enc = lambda x: encode_number(x, exact)
    doc = {
        "format": DIAGRAM_FORMAT,
        "input": input_doc.to_json(),
        "route": diagram.route,
        "chart": {"model": "klein", "curvature": -1.0},
        "sites": [
            {
                "index": s.origin_index if s.origin_index >= 0 else k,
                "center": encode_vector(s.center, exact),
                "weight": enc(s.weight),
            }
            for k, s in enumerate(cx.sites)
        ],
        "cells": [
            {
                "site": cell.site_index,
                "empty": cell.empty,
                "halfspaces": [
                    {
                        "neighbor": j,
                        "normal": encode_vector(cell.halfspaces[j].normal, exact),
                        "offset": enc(cell.halfspaces[j].offset),
                    }
                    for j in sorted(cell.halfspaces)
                ],
            }
            for cell in cx.cells
        ],
        "clip": {
            "center": encode_vector(cx.clip.center, exact),
            "radius": enc(cx.clip.radius),
        },
        "adjacency": [list(pair) for pair in sorted(cx.adjacency)],
        "facets": [
            {
                "pair": list(pair),
                "points": [encode_vector(v, exact) for v in cx.facets[pair]],
            }
            for pair in sorted(cx.facets)
        ],
        "power_vertices": [
            {
                "point": encode_vector(v.point, exact),
                "sites": sorted(v.sites),
            }
            for v in sorted(
                cx.power_vertices, key=lambda v: tuple(sorted(v.sites))
            )
        ],
        "boundaries": [
            {
                "pair": list(pair),
                "model": diagram.model.value,
                "lambda": enc(surface.lam),
                "a": encode_vector(surface.a, exact),
                "b": enc(surface.b),
                "class": _surface_class_name(surface),
            }
            for pair, surface in sorted(diagram.boundaries.items())
        ],
    }
    if dual is not None:
        doc["delaunay"] = delaunay_section(dual)
    if degeneracies is not None:
        doc["degeneracies"] = {
            "cocircular_groups": [list(g) for g in degeneracies.cocircular_groups],
            "collinear_groups": [list(g) for g in degeneracies.collinear_groups],
            "equal_norm_groups": [list(g) for g in degeneracies.equal_norm_groups],
            "equal_height_groups": [list(g) for g in degeneracies.equal_height_groups],
            "notes": list(degeneracies.notes),
        }
    if verification is not None:
        doc["verification"] = {
            "sample_count": verification.sample_count,
            "excluded": verification.excluded,
            "checked": verification.checked,
            "disagreements": verification.disagreements,
            "agreement_rate": verification.agreement_rate,
            "max_gap": verification.max_gap,
            "seed": verification.seed,
            "band": verification.band,
            "witness": verification.witness,
        }
    return doc


@dataclass
class DiagramDocument:
    """Parsed diagram document: typed access to the stored sections."""

    input: PointSetDocument
    cells: list  # (site_index, empty, {neighbor: Halfspace})
    adjacency: list
    facets: dict
    power_vertices: list  # (point, site indices)
    boundaries: list  # (pair, lam, a, b, class name)

    @property
    def dimension(self) -> int:
        return self.input.dimension


def _site_index(value, count: int, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    if not 0 <= value < count:
        raise ParseError(f"{what} {value} is out of range for {count} input points")
    return value


def _site_pair(value, count: int, what: str) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{what} must be two site indices, got {value!r}")
    return tuple(_site_index(v, count, what) for v in value)


def _site_set(value, count: int, what: str) -> tuple:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list of site indices, got {value!r}")
    sites = tuple(_site_index(v, count, what) for v in value)
    if len(set(sites)) != len(sites):
        raise ParseError(f"{what} repeat a site: {value!r}")
    return sites


def _vector(value, arity: int, what: str) -> tuple:
    vec = decode_vector(value)
    if len(vec) != arity:
        raise ParseError(f"{what} has {len(vec)} coordinates, needs {arity}")
    return vec


def parse_diagram(data) -> DiagramDocument:
    if not isinstance(data, dict) or data.get("format") != DIAGRAM_FORMAT:
        raise ParseError("not a hypervoronoi diagram document")
    try:
        input_doc = parse_point_set(data["input"])
        count, dim = len(input_doc.points), input_doc.dimension
        cells = []
        for k, cell in enumerate(data["cells"]):
            site = _site_index(cell["site"], count, f"cell {k} site")
            halfspaces = {}
            for h in cell["halfspaces"]:
                neighbor = _site_index(h["neighbor"], count, f"cell {k} neighbor")
                normal = _vector(h["normal"], dim, f"cell {k} neighbor {neighbor} normal")
                halfspaces[neighbor] = Halfspace(normal, decode_number(h["offset"]))
            if not isinstance(cell["empty"], bool):
                raise ParseError(f"cell {k} empty must be true or false, got {cell['empty']!r}")
            cells.append((site, cell["empty"], halfspaces))
        if not cells:
            raise ParseError("diagram document has no cells")
        adjacency = [
            _site_pair(pair, count, f"adjacency {k}") for k, pair in enumerate(data["adjacency"])
        ]
        facets = {}
        for k, f in enumerate(data.get("facets", [])):
            points = tuple(_vector(pt, dim, f"facet {k} point") for pt in f["points"])
            if len(points) < dim:
                raise ParseError(f"facet {k} has {len(points)} points, needs at least {dim}")
            facets[_site_pair(f["pair"], count, f"facet {k} pair")] = points
        power_vertices = [
            (
                _vector(v["point"], dim, f"power vertex {k} point"),
                _site_set(v["sites"], count, f"power vertex {k} sites"),
            )
            for k, v in enumerate(data.get("power_vertices", []))
        ]
        arity = dim + 1 if input_doc.model.ambient else dim
        boundaries = [
            (
                _site_pair(b["pair"], count, f"boundary {k} pair"),
                decode_number(b["lambda"]),
                _vector(b["a"], arity, f"boundary {k} a"),
                decode_number(b["b"]),
                str(b["class"]),
            )
            for k, b in enumerate(data.get("boundaries", []))
        ]
        if clip := data.get("clip"):
            decode_number(clip["radius"])
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed diagram document: {e!r}") from e
    return DiagramDocument(
        input=input_doc,
        cells=cells,
        adjacency=adjacency,
        facets=facets,
        power_vertices=power_vertices,
        boundaries=boundaries,
    )


def load_diagram(path) -> DiagramDocument:
    return parse_diagram(read_json(path))


def load_document(path) -> PointSetDocument | DiagramDocument:
    """Parse a file once as whichever document it holds."""
    data = read_json(path)
    if isinstance(data, dict) and data.get("format") == DIAGRAM_FORMAT:
        return parse_diagram(data)
    return parse_point_set(data)
