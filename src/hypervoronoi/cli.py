"""Command-line front end: compute, convert, delaunay, render, check.

Exit codes: 0 success; 1 verification disagreement; 2 parse error
(an unreadable input or an unwritable output path among them);
3 domain violation; 4 unsupported dimension; 5 exact arithmetic
unavailable on the requested path.  Every failure prints a single
machine-parseable line `error: <kind>: <reason>` on stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from fractions import Fraction

from . import __version__
from .conversions import convert
from .documents import (
    SCALAR_EXACT,
    DiagramDocument,
    PointSetDocument,
    delaunay_section,
    diagram_to_document,
    dump_json,
    load_diagram,
    load_document,
    load_point_set,
)
from .errors import (
    DimensionUnsupported,
    ExactArithmeticUnavailable,
    GeometryError,
    NoExplicitGeometry,
    ParseError,
)
from .hvd import delaunay, detect_degeneracies, oracle_hubs, verify, verify_cells, voronoi
from .models import Curvature, ModelTag
from .sampling import SEED_LIMIT, count_limit

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_DIMENSION = 4
EXIT_EXACT = 5


def _want_color() -> bool:
    return os.environ.get("NO_COLOR") is None and sys.stdout.isatty()


def _verdict(ok: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if _want_color():
        code = "32" if ok else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _write_output(text: str, path: str | None) -> None:
    """Write a command's output to `path`, or to stdout for None and "-".

    The one writer of every command.  A file is overwritten in place and
    then cut to the bytes written, not truncated on open: a file system
    may start writing back a file truncated to zero when it is closed
    (ext4's auto_da_alloc), and the next command to the same path then
    waits for that I/O in `open`.  A target that is not a regular file
    (/dev/null, a FIFO) is never cut.  A write that fails leaves a prefix
    of the new document, as `open(path, "w")` would.  An unwritable path
    raises ParseError.
    """
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    data = memoryview(text.encode("utf-8"))
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            written = 0
            try:
                while written < len(data):
                    written += os.write(fd, data[written:])
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, written)
        finally:
            os.close(fd)
    except OSError as e:
        raise ParseError(f"{path}: {e}") from e


def _apply_overrides(doc: PointSetDocument, args) -> PointSetDocument:
    if getattr(args, "model", None):
        doc.model = ModelTag.parse(args.model)
    if getattr(args, "curvature", None) is not None:
        Curvature(args.curvature)  # rejects -inf and nan before Fraction() meets them
        doc.curvature = (
            Fraction(args.curvature) if doc.exact else float(args.curvature)
        )
    if getattr(args, "exact", False) and not doc.exact:
        doc.scalar = SCALAR_EXACT
        doc.curvature = Fraction(doc.curvature)
        doc.points = [tuple(Fraction(c) for c in p) for p in doc.points]
    return doc


def _check_seed(seed: int) -> None:
    if not 0 <= seed < SEED_LIMIT:
        raise ParseError(f"--seed must be in [0, 2**128), got {seed}")


def _check_count(flag: str, count: int, d: int) -> None:
    if count >= count_limit(d):
        raise ParseError(f"{flag} must be below {count_limit(d)} at dimension {d}, got {count}")


def cmd_compute(args) -> int:
    _check_seed(args.seed)
    if args.verify < 0:
        raise ParseError(f"--verify must be >= 0, got {args.verify}")
    doc = _apply_overrides(load_point_set(args.input), args)
    _check_count("--verify", args.verify, doc.dimension)
    dia = voronoi(doc.model_points(), route=args.route)
    try:
        dual = delaunay(dia)
    except NoExplicitGeometry:
        dual = None
    degeneracies = detect_degeneracies(dia)
    verification = (
        verify(dia, args.verify, args.seed) if args.verify else None
    )
    _write_output(diagram_to_document(dia, dual, degeneracies, verification, input_doc=doc), args.output)
    return EXIT_OK


def cmd_convert(args) -> int:
    doc = _apply_overrides(load_point_set(args.input), args)
    target = ModelTag.parse(args.to)
    converted = []
    for k, p in enumerate(doc.model_points()):
        try:
            converted.append(convert(p, target).coords)
        except ExactArithmeticUnavailable as e:
            raise ExactArithmeticUnavailable(
                f"point {k}: exact conversion {doc.model.value} -> "
                f"{target.value} needs a square root ({e}); "
                "use float64 or a square-root-free path"
            ) from e
    out = PointSetDocument(doc.dimension, doc.curvature, target, doc.scalar, converted)
    _write_output(dump_json(out.to_json()), args.output)
    return EXIT_OK


def cmd_delaunay(args) -> int:
    doc = _apply_overrides(load_point_set(args.input), args)
    dia = voronoi(doc.model_points(), route=args.route)
    _write_output(dump_json(delaunay_section(delaunay(dia))), args.output)
    return EXIT_OK


def cmd_render(args) -> int:
    from .render import render_svg  # imported here: no other command needs it at start-up

    if args.width < 1:
        raise ParseError(f"--width must be >= 1, got {args.width}")
    doc = load_diagram(args.diagram)
    model = ModelTag.parse(args.model)
    svg = render_svg(doc, model, width=args.width, samples_per_arc=args.samples_per_arc)
    _write_output(svg, args.output)
    return EXIT_OK


def _print_report(report, label: str) -> int:
    print(f"checked: {label}")
    print(f"samples: {report.sample_count}")
    print(f"excluded (boundary band {report.band:g}): {report.excluded}")
    print(f"checked samples: {report.checked}")
    print(f"agreement: {report.agreement_rate:.6f}")
    print(f"max distance gap: {report.max_gap:.3e}")
    if report.witness is not None:
        w = report.witness
        point = ", ".join(f"{c:.12g}" for c in w["chart_point"])
        print(
            f"witness: sample={w['sample_index']} point=({point}) "
            f"diagram={w['diagram_label']} oracle={w['oracle_label']} "
            f"facet={'none' if w['facet'] is None else w['facet']} gap={w['distance_gap']:.3e}"
        )
    print(_verdict(report.ok))
    return EXIT_OK if report.ok else EXIT_DISAGREEMENT


def cmd_check(args) -> int:
    _check_seed(args.seed)
    if args.samples < 1:
        raise ParseError(f"--samples must be >= 1, got {args.samples}")
    doc = load_document(args.input)
    _check_count("--samples", args.samples, doc.dimension)
    if isinstance(doc, DiagramDocument):
        report = _check_stored_diagram(doc, args.samples, args.seed)
        return _print_report(report, f"stored diagram {args.input}")
    dia = voronoi(_apply_overrides(doc, args).model_points(), route=args.route)
    report = verify(dia, args.samples, args.seed)
    return _print_report(report, f"recomputed diagram of {args.input}")


def _check_stored_diagram(doc: DiagramDocument, samples: int, seed: int):
    """Validate a stored diagram's cell data against the distance oracle.

    Consumes the document only: labels come from the stored per-cell
    halfspace lists, the oracle from the echoed input points, lifted as
    the stored route's build lifted them.
    """
    return verify_cells(
        doc.cells,  # (site, empty, halfspaces): an empty cell labels no sample
        oracle_hubs(doc.input.model_points(), doc.route),
        Curvature(doc.input.curvature).radius,
        samples,
        seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypervoronoi",
        description="Hyperbolic Voronoi diagrams via clipped power diagrams.",
    )
    parser.add_argument(
        "--version", action="version", version=f"hypervoronoi {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", help="override the document's model tag")
        p.add_argument("--curvature", type=float, help="override the curvature (< 0)")

    p = sub.add_parser("compute", help="compute a diagram document")
    p.add_argument("input", help="point set document (JSON)")
    p.add_argument("--route", choices=("klein", "hemisphere"), default="klein")
    p.add_argument("--exact", action="store_true", help="exact-rational arithmetic")
    p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
    p.add_argument("--verify", type=int, default=0, metavar="N",
                   help="include a verification summary over N samples")
    p.add_argument("--seed", type=int, default=42)
    add_common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("convert", help="convert a point set to another model")
    p.add_argument("input")
    p.add_argument("--to", required=True, help="target model")
    p.add_argument("--output", "-o", default=None)
    add_common(p)
    p.set_defaults(func=cmd_convert, exact=False)

    p = sub.add_parser("delaunay", help="extract the Delaunay complex")
    p.add_argument("input")
    p.add_argument("--route", choices=("klein", "hemisphere"), default="klein")
    p.add_argument("--output", "-o", default=None)
    add_common(p)
    p.set_defaults(func=cmd_delaunay, exact=False)

    p = sub.add_parser("render", help="render a diagram document as SVG")
    p.add_argument("diagram", help="diagram document (JSON)")
    p.add_argument("--model", default="klein",
                   help="render model: klein, poincare or upper-half-space")
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--width", type=int, default=800)
    p.add_argument("--samples-per-arc", type=int, default=24,
                   help="polyline density for degenerate-arc fallback")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("check", help="verify a point set or stored diagram")
    p.add_argument("input", help="point set or diagram document")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--route", choices=("klein", "hemisphere"), default="klein")
    add_common(p)
    p.set_defaults(func=cmd_check, exact=False)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        _fail("parse", e)
        return EXIT_PARSE
    except (DimensionUnsupported, NoExplicitGeometry) as e:
        _fail("dimension", e)
        return EXIT_DIMENSION
    except ExactArithmeticUnavailable as e:
        _fail("exact-arithmetic", e)
        return EXIT_EXACT
    except GeometryError as e:
        _fail("domain", e)
        return EXIT_DOMAIN


def _fail(kind: str, err: Exception) -> None:
    message = " ".join(str(err).split())
    print(f"error: {kind}: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
