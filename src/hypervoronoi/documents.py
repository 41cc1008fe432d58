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

import numpy as np

from .bisectors import classify_rows
from .errors import ParseError
from .hvd import ROUTE_HEMISPHERE, ROUTE_KLEIN
from .models import Curvature, ModelPoint, ModelTag
from .power import Halfspace
from .scalars import is_exact, row_floats

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
    """A coordinate array: a list of finite floats is taken in one pass,
    anything else number by number through `decode_number`."""
    if not isinstance(vs, list):
        raise ParseError(f"expected a coordinate array, got {vs!r}")
    if {*map(type, vs)} == {float} and math.isfinite(sum(vs)):
        return tuple(vs)
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


def dump_json(data) -> str:
    """`json.dumps(data, indent=2, allow_nan=False)` and a newline."""
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


def _nested(data, indent: str) -> str:
    """`data` as `dump_json` writes it nested at `indent`, with no newline
    (a JSON string holds no raw line break)."""
    return json.dumps(data, indent=2, allow_nan=False).replace("\n", "\n" + indent)


# --- diagram documents --------------------------------------------------------

def delaunay_section(dual) -> dict:
    """The `delaunay` section of CLI `delaunay`; a diagram document's holds the same."""
    return {
        "edges": [list(e) for e in sorted(dual.edges)],
        "faces": [sorted(f) for f in dual.faces],
        "is_triangulation": dual.is_triangulation,
    }


# A diagram document is written in one pass, straight from the complex.
# Each record kind is one %-template at its fixed indent, and each large
# section one `%` over a flat argument list whose numbers were written a
# whole column at a time.  Only ints and model names enter a template as
# text, so no data is read as a % conversion.

def _array(items, indent: str) -> str:
    """A JSON array of written items, one a line at `indent` + 2 spaces."""
    if not items:
        return "[]"
    inner = ",\n" + indent + "  "
    return "[" + inner[1:] + inner.join(items) + "\n" + indent + "]"


def _object(items, indent: str) -> str:
    """A JSON object of (key, written value) items."""
    inner = ",\n" + indent + "  "
    return "{" + inner[1:] + inner.join(['"%s": %s' % kv for kv in items]) + "\n" + indent + "}"


def _slots(count: int, indent: str) -> str:
    return _array(["%s"] * count, indent)


def _filled(templates, indent: str, *columns) -> str:
    """The array of `templates`, filled with the columns' items row by row."""
    args = [None] * sum(map(len, columns))
    for k, column in enumerate(columns):
        args[k :: len(columns)] = column
    return _array(templates, indent) % tuple(args)


def _numbers(xs, exact: bool) -> list:
    """JSON texts of numbers, as `dump_json` writes their `encode_number`;
    NaN and infinities raise its ValueError.  An exact int or `Fraction`
    is written from its numerator and denominator; a float as its
    magnitude with the sign in front, so each magnitude is written once."""
    if exact:
        return ['"%d/%d"' % (x.numerator, x.denominator) if isinstance(x, (int, Fraction))
                else '"%s"' % encode_number(x, True) for x in xs]
    v = np.array(xs, dtype=float).reshape(-1)
    magnitudes, index = np.unique(np.abs(v), return_inverse=True)
    texts = list(map(float.__repr__, magnitudes.tolist()))
    if "n" in "".join(texts):  # nan, inf
        raise _nonfinite_error(v.tolist())
    texts += ["-" + t for t in texts]
    return list(map(texts.__getitem__, (index + len(texts) // 2 * np.signbit(v)).tolist()))


def diagram_to_document(diagram, dual=None, degeneracies=None, verification=None,
                        input_doc: PointSetDocument | None = None) -> str:
    """The text of a VoronoiDiagram's document (plus optional sections):
    byte for byte `dump_json` of the dict `tests/util.reference_document`
    builds, written without building it."""
    cx = diagram.complex
    exact = all(is_exact(c) for s in cx.sites for c in s.center + (s.weight,))
    if input_doc is None:
        input_doc = PointSetDocument(diagram.dimension, diagram.curvature.kappa, diagram.model,
                                     SCALAR_EXACT if exact else SCALAR_FLOAT, [p.coords for p in diagram.sites])
    d = cx.dimension
    I4, I6, I8 = " " * 4, " " * 6, " " * 8
    point, pair = _slots(d, I6), _slots(2, I6)
    flat, ends = [], []  # the numbers of sites, cells, clip, facets, vertices, boundaries

    def numbers(xs):
        flat.extend(xs)
        ends.append(len(flat))

    points = input_doc.points
    vector = {k: _slots(k, I6) for k in set(map(len, points))}
    inp = [
        ("dimension", _nested(input_doc.dimension, "")),
        ("curvature", _numbers([input_doc.curvature], input_doc.exact)[0]),
        ("model", _nested(input_doc.model.value, "")),
        ("scalar", _nested(input_doc.scalar, "")),
        ("points", _filled([vector[len(p)] for p in points], I4,
                           _numbers([x for p in points for x in p], input_doc.exact))),
    ]

    sites = cx.sites
    numbers([x for s in sites for x in s.center + (s.weight,)])

    half = _object([("neighbor", "%s"), ("normal", _slots(d, " " * 10)), ("offset", "%s")], I8)
    halves = [_array([half] * k, I6) for k in range(max(len(c.halfspaces) for c in cx.cells) + 1)]
    cell = _object([("site", "%s"), ("empty", "%s"), ("halfspaces", "%s")], I4)
    cells, neighbors, rows = [], [], []
    for k, c in enumerate(cx.cells):
        order = sorted(c.halfspaces)
        neighbors += order
        rows += map(c.halfspaces.__getitem__, order)
        cells.append(cell % (k, "true" if c.empty else "false", halves[len(order)]))
    numbers([x for h in rows for x in h.normal + (h.offset,)])
    numbers((0,) * d + (1,))  # the clip ball: the unit ball

    adjacency = sorted(cx.adjacency)
    facets = sorted(cx.facets)
    facet = _object([("pair", pair), ("points", "%s")], I4)
    runs = [_array([_slots(d, I8)] * k, I6) for k in range(max(map(len, cx.facets.values()), default=0) + 1)]
    numbers([x for p in facets for v in cx.facets[p] for x in v])

    vertices = sorted(((tuple(sorted(v.sites)), v.point) for v in cx.power_vertices), key=lambda t: t[0])
    vertex = _object([("point", "%s"), ("sites", "%s")], I4)
    numbers([x for _, v in vertices for x in v])

    bounds = sorted(diagram.boundaries.items())
    numbers([x for _, s in bounds for x in s.coefficients()])
    k = (ends[-1] - ends[-2]) // len(bounds) if bounds else 2
    # a float build's rows all hold floats (`build_complex`), so row_floats is float() there
    rows = [row_floats(s.coefficients()) for _, s in bounds] if exact else np.reshape(flat[ends[-2]:], (-1, k))
    classes = classify_rows(rows, diagram.model) if bounds else []
    boundary = _object([("pair", pair), ("model", _nested(diagram.model.value, "")), ("lambda", "%s"),
                        ("a", _slots(k - 2, I6)), ("b", "%s"), ("class", "%s")], I4)

    texts = _numbers(flat, exact)
    S, H, C, F, V, B = (texts[lo:hi] for lo, hi in zip([0] + ends, ends))
    doc = [
        ("format", _nested(DIAGRAM_FORMAT, "")),
        ("input", _object(inp, "  ")),
        ("route", _nested(diagram.route, "")),
        ("chart", _nested({"model": "klein", "curvature": -1.0}, "  ")),
        ("sites", _filled([_object([("index", "%s"), ("center", point), ("weight", "%s")], I4)] * len(sites),
                          "  ", range(len(sites)), *(S[c :: d + 1] for c in range(d + 1)))),
        ("cells", _filled(cells, "  ", neighbors, *(H[c :: d + 1] for c in range(d + 1)))),
        ("clip", _object([("center", _slots(len(C) - 1, I4) % tuple(C[:-1])), ("radius", C[-1])], "  ")),
        ("adjacency", _filled([_slots(2, I4)] * len(adjacency), "  ", *zip(*adjacency))),
        ("facets", _filled([facet % (p + (runs[len(cx.facets[p])],)) for p in facets], "  ", F)),
        ("power_vertices", _filled([vertex % (point, _array(list(map(str, s)), I6)) for s, _ in vertices], "  ", V)),
        ("boundaries", _filled([boundary] * len(bounds), "  ", *zip(*[p for p, _ in bounds]),
                               *(B[c::k] for c in range(k)), ['"%s"' % c for c in classes])),
    ]
    if dual is not None:
        section = delaunay_section(dual)
        edges, faces = section["edges"], section["faces"]
        doc.append(("delaunay", _object([
            ("edges", _filled([pair] * len(edges), I4, *zip(*edges))),
            ("faces", _filled([_slots(len(f), I6) for f in faces], I4, [x for f in faces for x in f])),
            ("is_triangulation", _nested(section["is_triangulation"], "")),
        ], "  ")))
    if degeneracies is not None:
        groups = ("cocircular_groups", "collinear_groups", "equal_norm_groups", "equal_height_groups")
        section = {g: [list(x) for x in getattr(degeneracies, g)] for g in groups}
        doc.append(("degeneracies", _nested({**section, "notes": list(degeneracies.notes)}, "  ")))
    if verification is not None:
        fields = ("sample_count", "excluded", "checked", "disagreements", "agreement_rate", "max_gap",
                  "seed", "band", "witness")
        doc.append(("verification", _nested({f: getattr(verification, f) for f in fields}, "  ")))
    return _object(doc, "") + "\n"


@dataclass
class DiagramDocument:
    """Parsed diagram document: typed access to the stored sections."""

    input: PointSetDocument
    route: str  # the build's: "klein" or "hemisphere"
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
        route = data["route"]
        if route not in (ROUTE_KLEIN, ROUTE_HEMISPHERE):
            raise ParseError(f"route must be {ROUTE_KLEIN!r} or {ROUTE_HEMISPHERE!r}, got {route!r}")
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
        route=route,
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
