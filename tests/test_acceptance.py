"""Acceptance suite: one test per criterion, each at its fixed tolerance.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion (the PASS prints also appear with -s).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from hypervoronoi import (
    KLEIN_WEIGHT_SIGN_THRESHOLD,
    ModelPoint,
    ModelTag,
    ROUTE_HEMISPHERE,
    ROUTE_KLEIN,
    bisector,
    convert,
    delaunay,
    distance,
    geodesic,
    hemisphere_site_map,
    klein_site_map,
    lift_to_hemisphere,
    metric_tensor,
    radical_hyperplane,
    verify,
    voronoi,
)
from hypervoronoi.documents import dump_json
from hypervoronoi.hvd import sample_labels
from hypervoronoi.sampling import (
    random_klein_points,
    rational_hemisphere_points,
)

from util import (
    ALL_MODELS,
    bisector_sample_point,
    cocircular_square,
    random_klein_point,
    random_model_point,
    unbounded_star_points,
    wheel_points,
)


def kpts(raw):
    return [ModelPoint(ModelTag.KLEIN, p) for p in raw]


def done(n, message):
    print(f"[criterion {n:2d}] PASS: {message}")


def test_acceptance_01_oracle_agreement_16_sites():
    t0 = time.monotonic()
    dia = voronoi(kpts(random_klein_points(16, seed=42)), route=ROUTE_KLEIN)
    report = verify(dia, 10_000, 42)
    elapsed = time.monotonic() - t0
    assert report.disagreements == 0
    assert report.agreement_rate == 1.0
    assert report.excluded + report.checked == 10_000
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    done(1, f"10^4 samples agree (excluded {report.excluded}, {elapsed:.2f}s)")


def test_acceptance_02_route_equivalence_and_exact_determinism(tmp_path):
    # label equivalence on criterion 1's fixture and samples
    pts = kpts(random_klein_points(16, seed=42))
    dk = voronoi(pts, route=ROUTE_KLEIN)
    dh = voronoi(pts, route=ROUTE_HEMISPHERE)
    _, lk, _, mk = sample_labels(dk, 10_000, 42)
    _, lh, _, mh = sample_labels(dh, 10_000, 42)
    keep = (mk > 1e-7) & (mh > 1e-7)
    assert (lk[keep] == lh[keep]).all()

    # exact-rational input: bit-identical halfspace tuples across runs
    hpts = rational_hemisphere_points(10, seed=91)
    tables = []
    for _ in range(2):
        dia = voronoi(
            [ModelPoint(ModelTag.HEMISPHERE, p) for p in hpts],
            route=ROUTE_HEMISPHERE,
        )
        tables.append(
            tuple(
                (i, j, cell.halfspaces[j].normal, cell.halfspaces[j].offset)
                for i, cell in enumerate(dia.complex.cells)
                for j in sorted(cell.halfspaces)
            )
        )
    assert tables[0] == tables[1]

    # and across two independent process invocations of the CLI
    doc = {
        "dimension": 2,
        "curvature": "-1/1",
        "model": "hemisphere",
        "scalar": "exact-rational",
        "points": [[f"{c.numerator}/{c.denominator}" for c in p] for p in hpts],
    }
    inp = tmp_path / "exact.json"
    inp.write_text(dump_json(doc))
    outputs = []
    for k in range(2):
        out = tmp_path / f"run{k}.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "hypervoronoi.cli",
                "compute",
                str(inp),
                "--route",
                "hemisphere",
                "-o",
                str(out),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    done(2, "hemisphere route reproduces labels; exact runs bit-identical")


def parallel_err(u, v):
    u = np.asarray([float(c) for c in u])
    v = np.asarray([float(c) for c in v])
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return min(np.abs(u - v).max(), np.abs(u + v).max())


def test_acceptance_03_radical_bisector_coincidence():
    rng = np.random.default_rng(1042)
    worst_k = worst_h = 0.0
    for _ in range(500):
        p, q = random_klein_point(rng), random_klein_point(rng)
        if p.coords == q.coords:
            continue
        hs = radical_hyperplane(klein_site_map(p.coords), klein_site_map(q.coords))
        s = bisector(p, q)
        worst_k = max(worst_k, parallel_err(hs.normal + (hs.offset,), s.a + (s.b,)))
        hp = lift_to_hemisphere(p.coords)
        hq = lift_to_hemisphere(q.coords)
        hs2 = radical_hyperplane(hemisphere_site_map(hp), hemisphere_site_map(hq))
        hb = bisector(
            ModelPoint(ModelTag.HEMISPHERE, hp), ModelPoint(ModelTag.HEMISPHERE, hq)
        )
        worst_h = max(
            worst_h, parallel_err(hs2.normal + (hs2.offset,), hb.a[1:] + (hb.b,))
        )
    assert worst_k < 1e-10
    assert worst_h < 1e-10
    done(3, f"500 pairs: max deviation klein {worst_k:.2e}, hemisphere {worst_h:.2e}")


def test_acceptance_04_weight_sign_threshold():
    def weight_at(t):
        return float(klein_site_map((math.sqrt(t), 0.0)).weight)

    lo, hi = 0.5, 0.99
    assert weight_at(lo) < 0 < weight_at(hi)
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if weight_at(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    exact = 4.0 * (math.sqrt(5.0) - 2.0)
    assert abs(root - exact) < 1e-12
    assert abs(root - KLEIN_WEIGHT_SIGN_THRESHOLD) < 1e-12
    assert round(exact, 6) == 0.944272
    done(4, f"sign change located at {root:.15f} = 4(sqrt(5)-2)")


def test_acceptance_05_isometry_suite():
    rng = np.random.default_rng(1055)
    pairs = [(random_klein_point(rng), random_klein_point(rng)) for _ in range(1000)]
    base = [distance(p, q) for p, q in pairs]
    worst_iso = 0.0
    for src in ALL_MODELS:
        src_pairs = [(convert(p, src), convert(q, src)) for p, q in pairs]
        for dst in ALL_MODELS:
            if dst is src:
                continue
            for (a, b), d0 in zip(src_pairs, base):
                d1 = distance(convert(a, dst), convert(b, dst))
                worst_iso = max(worst_iso, abs(d1 - d0))
    assert worst_iso < 1e-9
    worst_rt = 0.0
    points = [random_klein_point(rng) for _ in range(1000)]
    for src in ALL_MODELS:
        src_points = [convert(p, src) for p in points]
        for dst in ALL_MODELS:
            for a in src_points[:250]:
                back = convert(convert(a, dst), src)
                worst_rt = max(
                    worst_rt,
                    max(abs(float(x) - float(y)) for x, y in zip(back.coords, a.coords)),
                )
    assert worst_rt < 1e-12
    done(5, f"20 ordered pairs: max distance drift {worst_iso:.2e}, round trip {worst_rt:.2e}")


def test_acceptance_06_equidistance_every_model():
    rng = np.random.default_rng(1066)
    for model in ALL_MODELS:
        worst = 0.0
        samples = 0
        while samples < 500:
            p = random_model_point(model, rng)
            q = random_model_point(model, rng)
            if p.coords == q.coords:
                continue
            s = bisector(p, q)
            if model is ModelTag.HYPERBOLOID:
                assert s.b == 0
            if model is ModelTag.HEMISPHERE:
                assert s.a[0] == 0
            x = bisector_sample_point(p, q, s, rng)
            if x is None:
                continue
            samples += 1
            worst = max(worst, abs(distance(p, x) - distance(q, x)))
        assert worst < 1e-8, (model, worst)
    done(6, "500 bisector samples per model equidistant within 1e-8")


def test_acceptance_07_degenerate_fixtures():
    # Fig 2(a): wheel with bisectors through the origin
    wheel = voronoi(kpts(wheel_points(8, 0.6)))
    assert max(abs(float(s.b)) for s in wheel.boundaries.values()) < 1e-12
    # Fig 3: nine sites, dual graph is a star tree
    star = delaunay(voronoi(kpts(unbounded_star_points(8, 0.998))))
    assert star.faces == []
    assert star.edges == {(0, k) for k in range(1, 9)}
    assert len(star.edges) == 8
    assert not star.is_triangulation
    # four co-circular equal-norm sites: one quadrilateral dual face
    quad = delaunay(voronoi(kpts(cocircular_square(0.4))))
    assert quad.faces == [frozenset({0, 1, 2, 3})]
    assert not quad.is_triangulation
    done(7, "wheel / star-tree / quadrilateral fixtures all as expected")


def test_acceptance_08_empty_sphere_property():
    rng = np.random.default_rng(1088)
    instances = 0
    attempt = 0
    while instances < 20:
        attempt += 1
        n = int(rng.integers(4, 33))
        pts = kpts(random_klein_points(n, seed=8800 + attempt))
        dia = voronoi(pts)
        dual = delaunay(dia)
        tri = [f for f in dual.faces if len(f) == 3]
        if not tri:
            continue
        instances += 1
        centers = {frozenset(v.sites): v.point for v in dia.complex.power_vertices}
        for face in tri:
            c = ModelPoint(ModelTag.KLEIN, tuple(float(v) for v in centers[face]))
            dface = [distance(c, pts[i]) for i in sorted(face)]
            assert max(dface) - min(dface) < 1e-8
            others = [distance(c, pts[i]) for i in range(n) if i not in face]
            if others:
                assert min(others) > max(dface)
    done(8, "20 instances: circumcenters equidistant and strictly closest")


def test_acceptance_09_geodesics():
    rng = np.random.default_rng(1099)
    for model in ALL_MODELS:
        for _ in range(40):
            p = random_model_point(model, rng)
            q = random_model_point(model, rng)
            if p.coords == q.coords:
                continue
            total = distance(p, q)
            for t in (0.25, 0.5, 0.75):
                g = geodesic(p, q, t)
                assert abs(distance(p, g) - t * total) < 1e-9
            mid = geodesic(p, q, 0.5)
            assert abs(float(bisector(p, q).unit().evaluate(mid.coords))) < 1e-9
    for _ in range(40):
        p, q = random_klein_point(rng), random_klein_point(rng)
        if p.coords == q.coords:
            continue
        for t in (0.25, 0.5, 0.75):
            g = geodesic(p, q, t).coords
            cross = (q.coords[0] - p.coords[0]) * (g[1] - p.coords[1]) - (
                q.coords[1] - p.coords[1]
            ) * (g[0] - p.coords[0])
            assert abs(cross) < 1e-9
    done(9, "constant speed, Klein chords, midpoints on bisectors")


def test_acceptance_10_conformality():
    rng = np.random.default_rng(1100)
    for model in (ModelTag.POINCARE, ModelTag.UPPER_HALF_SPACE, ModelTag.HEMISPHERE):
        for _ in range(100):
            p = random_model_point(model, rng)
            g = metric_tensor(p)
            diag = np.diag(g)
            off = g - np.diag(diag)
            assert np.max(np.abs(off)) < 1e-12 * np.max(np.abs(diag))
            assert np.ptp(diag) < 1e-12 * np.max(np.abs(diag))
    theta = rng.uniform(0, 2 * math.pi)
    p = ModelPoint(ModelTag.KLEIN, (0.5 * math.cos(theta), 0.5 * math.sin(theta)))
    eig = np.linalg.eigvalsh(metric_tensor(p))
    margin = (eig.max() - eig.min()) / eig.max()
    assert margin > 0.1
    done(10, f"conformal tensors scalar; Klein margin {margin:.3f} at |x| = 0.5")


def test_acceptance_11_rendering_adjacency_across_models(tmp_path):
    base = random_klein_points(16, seed=42)
    adjacency = {}
    for model in ("klein", "poincare", "upper-half-space"):
        tag = ModelTag.parse(model)
        pts = [convert(ModelPoint(ModelTag.KLEIN, p), tag) for p in base]
        dia = voronoi(pts)
        adjacency[model] = sorted(dia.complex.adjacency)
        # and the rendering pipeline runs end to end on each document
        from hypervoronoi.documents import diagram_to_document, parse_diagram
        from hypervoronoi.render import render_svg

        doc = parse_diagram(json.loads(diagram_to_document(dia, delaunay(dia))))
        svg = render_svg(doc, tag, width=640)
        assert svg.startswith("<?xml") and "svg" in svg
    assert adjacency["klein"] == adjacency["poincare"] == adjacency["upper-half-space"]
    done(11, "K/P/U documents share one adjacency graph; all three render")
