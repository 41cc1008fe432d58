"""Differential tests against the lifted lower hull of the sites (Qhull),
a reference that shares no code with `build_complex`."""

import numpy as np
import pytest

pytest.importorskip("scipy")

from hypervoronoi import ModelPoint, ModelTag, delaunay, power, voronoi  # noqa: E402
from hypervoronoi.sampling import (  # noqa: E402
    random_klein_points,
    rational_hemisphere_points,
)

from util import PowerHull, cocircular_square, unbounded_star_points  # noqa: E402

# (route, d, n): float Klein input and exact hemisphere input, d = 2 and 3
CASES = [
    ("klein", 2, 200),
    ("klein", 3, 50),
    ("hemisphere", 2, 60),
    ("hemisphere", 3, 30),
]


def _diagram(route, d, n, seed=7):
    if route == "klein":
        pts = [ModelPoint(ModelTag.KLEIN, p) for p in random_klein_points(n, d, seed=seed)]
    else:
        pts = [ModelPoint(ModelTag.HEMISPHERE, p) for p in rational_hemisphere_points(n, d, seed=seed)]
    return voronoi(pts, route=route)


@pytest.mark.parametrize("route, d, n", CASES)
def test_power_vertices_in_the_ball_are_the_lower_hulls(route, d, n):
    dia = _diagram(route, d, n)
    cx = dia.complex
    expected = PowerHull(cx.sites).vertices_inside()
    found = {
        v.sites: np.array([float(c) for c in v.point])
        for v in cx.power_vertices
        if sum(float(c) ** 2 for c in v.point) < 1
    }
    assert set(found) == set(expected)
    assert len(found) > n // 2
    for sites, point in found.items():
        assert np.allclose(point, expected[sites], rtol=0, atol=1e-9), sites


@pytest.mark.parametrize("route, d, n", CASES)
def test_delaunay_is_the_lower_hulls(route, d, n):
    dia = _diagram(route, d, n)
    hull = PowerHull(dia.complex.sites)
    faces, is_triangulation = hull.faces_inside()
    dl = delaunay(dia)
    assert set(dl.faces) == faces
    assert len(dl.faces) == len(faces)
    assert dl.edges == hull.pairs_meeting()
    assert dl.is_triangulation == is_triangulation


@pytest.mark.parametrize(
    "raw, faces",
    [
        (unbounded_star_points(8, 0.998), 0),
        (cocircular_square(0.4) + [(0.7, 0.1), (-0.2, 0.5)], 3),
    ],
    ids=["star", "cocircular"],
)
def test_degenerate_delaunay_is_the_lower_hulls(raw, faces):
    """No face inside the ball (a star tree), and a quadrilateral face:
    neither is a triangulation."""
    dia = voronoi([ModelPoint(ModelTag.KLEIN, p) for p in raw])
    hull = PowerHull(dia.complex.sites)
    dl = delaunay(dia)
    assert (set(dl.faces), dl.is_triangulation) == hull.faces_inside()
    assert len(dl.faces) == faces
    assert not dl.is_triangulation
    assert dl.edges == hull.pairs_meeting()


@pytest.mark.parametrize(
    "raw, d",
    [
        (unbounded_star_points(8, 0.998), 2),
        (random_klein_points(200, 2, seed=1), 2),
        (random_klein_points(50, 3, seed=1), 3),
    ],
    ids=["star", "random-200", "random-3d-50"],
)
def test_adjacency_is_the_full_diagrams_pairs_meeting_the_ball(raw, d):
    """The full power diagram's facets that meet the open ball are the
    clipped build's adjacency, and the full diagram has more."""
    sites = [power.klein_site_map(p) for p in raw]
    cx = power.build_complex(sites)
    hull = PowerHull(sites)
    assert hull.pairs_meeting() == cx.adjacency
    assert len(hull.pairs) > len(cx.adjacency)
