"""Metric definitions of the hypervoronoi benchmark.

End-to-end metrics are measured with tracing off and are reported on every
workload.  Operation metrics (`<kind>_s`, `<kind>_ref`) time one operation
kind; they are printed on the workload that runs that kind.
Per-layer metrics come from the traced run; each is a mean per operation.

Every per-layer metric states, before anything is measured, which
operation metrics it should move (`moves`) and on which workloads it shows
(`on`), so that a change can cite its prediction.  `BENCHMARK.json` mirrors
`END_TO_END` and `PER_LAYER`; the self-test checks that they agree.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = ""
    bound: float | None = None
    moves: str = ""
    on: str = ""


# Bounds are the share of the parent's median by which a metric may worsen.
# round_ref is the median round (one operation of each kind), each operation
# timed in units of the reference loop run next to it (see run.py); raw
# wall times move with the shared host's speed, up to 1.5x over minutes.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("round_ref", "ref", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

# Printed with the end-to-end metrics, not gated: the raw wall times.
PRINTED = (
    Metric("round_s", "s", "lower"),
    Metric("ops_per_s", "ops/s", "higher"),
    Metric("reference_s", "s", "lower"),
)

# Printed on every run, not gated because it is 0 when the program is
# correct; failures are gated through the result's `correct` and `failed`.
FAILED_RATIO = Metric("failed_ratio", "fraction", "lower")

# Operation kinds: metrics `<kind>_s`, the median wall time of one operation,
# and `<kind>_ref`, the median of its wall time over the reference loop's.
OPERATION_KINDS = {
    "compute_d2": "CLI compute, Klein route, float64, d=2, n=200",
    "compute_d3": "CLI compute, Klein route, float64, d=3, n=50",
    "compute_exact": "CLI compute --route hemisphere, exact-rational, d=2, n=50",
    "check_stored": "CLI check on a stored diagram document, 10 000 samples",
    "check_points": "CLI check on a point set document, 10 000 samples",
    "pipeline": "library voronoi -> delaunay -> verify, 10 000 samples",
}

# Span groups of the traced run: each wraps the named functions, wherever
# the package binds them.  Self time is span time minus child span time.
SPAN_GROUPS = {
    "models.validate_point": ("models.validate_point",),
    "conversions.hub_coords": ("conversions.hub_coords",),
    "power.site_map": ("power.klein_site_map", "power.hemisphere_site_map"),
    "power.radical_hyperplane": ("power.radical_hyperplane",),
    "power.build_complex": ("power.build_complex",),
    "clipping.clip": ("clipping.clip_polygon", "clipping.clip_polyhedron"),
    "bisectors.transport_surface": ("bisectors.transport_surface",),
    "bisectors.classify": ("bisectors.classify",),
    "hvd.voronoi": ("hvd.voronoi",),
    "hvd.delaunay": ("hvd.delaunay",),
    "hvd.detect_degeneracies": ("hvd.detect_degeneracies",),
    "hvd.sample_labels": ("hvd.sample_labels",),
    "hvd.verify": ("hvd.verify",),
    "sampling.ball_points": ("sampling.ball_points",),
    "documents.encode": ("documents.diagram_to_document", "documents.dump_json"),
    "documents.decode": (
        "documents.load_point_set",
        "documents.load_diagram",
        "documents.sniff_document",
        "documents.parse_point_set",
        "documents.parse_diagram",
    ),
    "cli.check_stored": ("cli._check_stored_diagram",),
    "cli.command": (
        "cli.main",
        "cli.build_parser",
        "cli.cmd_compute",
        "cli.cmd_check",
        "cli._apply_overrides",
        "cli._print_report",
        "cli._write_output",
    ),
}

COMPUTE = "compute_d2_s, compute_d3_s, compute_exact_s"


def _layer(name, unit, moves, on, better="lower") -> Metric:
    return Metric(name, unit, better, None, moves, on)


PER_LAYER = (
    _layer("models.validate_point.calls", "count/op", moves=f"check_points_s, {COMPUTE}", on="all"),
    _layer("models.validate_point.self_s", "s/op", moves=f"check_points_s, {COMPUTE}", on="all"),
    _layer("conversions.hub_coords.calls", "count/op", moves="compute_exact_s", on="exact"),
    _layer("conversions.hub_coords.self_s", "s/op", moves="compute_exact_s", on="exact"),
    _layer("power.site_map.self_s", "s/op", moves=COMPUTE, on="build, exact"),
    _layer("power.radical_hyperplane.calls", "count/op", moves=COMPUTE, on="build, exact"),
    _layer("power.radical_hyperplane.self_s", "s/op", moves=COMPUTE, on="build, exact"),
    _layer("power.build_complex.calls", "count/op", moves=COMPUTE, on="build, exact"),
    _layer("power.build_complex.self_s", "s/op", moves=COMPUTE, on="build, exact"),
    _layer("clipping.clip.calls", "count/op", moves=COMPUTE, on="build, exact"),
    _layer("clipping.clip.self_s", "s/op", moves=COMPUTE, on="build, exact"),
    _layer("clipping.useful_ratio", "fraction", moves=COMPUTE, on="build, exact", better="higher"),
    _layer("bisectors.transport_surface.calls", "count/op", moves=COMPUTE, on="build"),
    _layer("bisectors.transport_surface.self_s", "s/op", moves=COMPUTE, on="build"),
    _layer("bisectors.classify.self_s", "s/op", moves=COMPUTE, on="build"),
    _layer("hvd.voronoi.self_s", "s/op", moves=COMPUTE, on="build"),
    _layer("hvd.delaunay.self_s", "s/op", moves=COMPUTE, on="build"),
    _layer("hvd.detect_degeneracies.self_s", "s/op", moves="compute_d2_s", on="build"),
    _layer("hvd.sample_labels.self_s", "s/op", moves="pipeline_s, check_points_s", on="verify"),
    _layer("hvd.verify.self_s", "s/op", moves="pipeline_s, check_points_s", on="verify"),
    _layer("hvd.adjacency_pairs", "count/op", moves=COMPUTE, on="build"),
    _layer("hvd.delaunay_edges", "count/op", moves=COMPUTE, on="build", better="higher"),
    _layer("hvd.in_ball_edge_ratio", "fraction", moves=COMPUTE, on="build", better="higher"),
    _layer("verify.samples", "count/op", moves="pipeline_s, check_points_s, check_stored_s", on="verify", better="higher"),
    _layer("verify.excluded", "count/op", moves="pipeline_s, check_points_s, check_stored_s", on="verify"),
    _layer("sampling.ball_points.calls", "count/op", moves="check_*, pipeline_s", on="verify (zero on build)"),
    _layer("sampling.ball_points.samples", "count/op", moves="check_*, pipeline_s", on="verify (zero on build)"),
    _layer("sampling.ball_points.self_s", "s/op", moves="check_*, pipeline_s", on="verify (zero on build)"),
    _layer("documents.encode.self_s", "s/op", moves=COMPUTE, on="build, exact"),
    _layer("documents.decode.self_s", "s/op", moves="check_stored_s", on="verify"),
    _layer("documents.json_parses", "count/op", moves="check_stored_s", on="verify"),
    _layer("documents.bytes_out", "bytes/op", moves=COMPUTE, on="build, exact"),
    _layer("cli.check_stored.self_s", "s/op", moves="check_stored_s", on="verify"),
    _layer("cli.command.self_s", "s/op", moves="check_stored_s", on="verify"),
    _layer("trace.overhead_s", "s/op", moves="none: traced minus untraced time on the same inputs", on="all"),
    _layer("trace.overhead_ratio", "fraction", moves="none: overhead over the untraced time", on="all"),
)

# Counts that must repeat exactly across traced runs with the same seed.
EXACT_COUNTS = tuple(
    m.name
    for m in PER_LAYER
    if m.name.endswith(".calls")
    or m.name
    in ("verify.samples", "documents.json_parses", "hvd.adjacency_pairs")
)
