from fractions import Fraction

import numpy as np
import pytest

from hypervoronoi import Halfspace, ModelPoint, ModelTag, voronoi
from hypervoronoi.hvd import cell_matrices, label_samples, sample_labels, verify_cells
from hypervoronoi import sampling
from hypervoronoi.sampling import ball_points, random_klein_points

# Both sides of the first blocks, a power-of-two boundary and the stream end.
INDICES = (0, 1, 2, 3, 4, 5, 7, 8, 9, 127, 128, 255, 256, 257, 598, 599)


def ball_point(seed, index, d):
    """Sample `index` alone: a Philox generator advanced to its block."""
    k = sampling._outputs_per_sample(d)
    bits = np.random.Philox(key=seed)
    bits.advance(index * k // 4)
    return tuple(sampling._ball_from_raw(bits.random_raw(k).reshape(1, k), d)[0])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ball_point_is_row_of_ball_points(d):
    X = ball_points(2024, 600, d)
    assert X.shape == (600, d)
    for i in INDICES:
        assert ball_point(2024, i, d) == tuple(X[i])
    assert (np.linalg.norm(X, axis=1) < 1.0).all()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ball_points_prefix_stable_and_uniform(d):
    X = ball_points(5, 4000, d)
    assert np.array_equal(ball_points(5, 100, d), X[:100])
    assert not np.array_equal(ball_points(6, 100, d), X[:100])
    # |x|^d is uniform on (0, 1) for a uniform sample of the ball
    assert abs(float((np.linalg.norm(X, axis=1) ** d).mean()) - 0.5) < 0.02
    assert np.abs(X.mean(axis=0)).max() < 0.05


def test_ball_points_empty_stream():
    assert ball_points(1, 0, 3).shape == (0, 3)


def test_labeller_matches_power_argmin_off_boundaries():
    pts = [ModelPoint(ModelTag.KLEIN, p) for p in random_klein_points(20, seed=8)]
    dia = voronoi(pts)
    X, labels, oracle, margin = sample_labels(dia, 3000, 3)
    sites = dia.complex.sites
    C = np.array([s.center for s in sites], dtype=float)
    W = np.array([float(s.weight) for s in sites])
    power = ((X[:, None, :] - C[None]) ** 2).sum(axis=2) - W[None]
    keep = margin > 1e-7
    assert keep.mean() > 0.99
    assert (labels[keep] == np.argmin(power, axis=1)[keep]).all()
    assert (labels[keep] == oracle[keep]).all()


def test_labeller_matches_per_sample_loop():
    pts = [ModelPoint(ModelTag.KLEIN, p) for p in random_klein_points(9, seed=4)]
    dia = voronoi(pts)
    X = ball_points(12, 400, 2)
    table = cell_matrices(list(enumerate(c.halfspaces for c in dia.complex.cells)), 2)
    labels, margin = label_samples(X, table)
    sites, offsets, _, A, b = table
    for k, x in enumerate(X):
        best = None
        for c, site in enumerate(sites):
            vals = A[offsets[c] : offsets[c + 1]] @ x + b[offsets[c] : offsets[c + 1]]
            if best is None or vals.max() < best[0]:
                best = (vals.max(), site, np.abs(vals).min())
        if abs(best[2]) > 1e-12:  # summation order may differ on a boundary
            assert labels[k] == best[1]
        assert margin[k] == pytest.approx(best[2], rel=1e-12, abs=1e-15)


def test_cell_matrices_unit_normals_in_neighbor_order():
    exact = Halfspace((Fraction(3), Fraction(4)), Fraction(5))
    cells = [(0, {2: exact, 1: Halfspace((0.0, 2.0), 1.0)})]
    sites, offsets, neighbors, A, b = cell_matrices(cells, 2)
    assert sites.tolist() == [0] and offsets.tolist() == [0, 2] and neighbors.tolist() == [1, 2]
    assert A.tolist() == [[0.0, 1.0], [0.6, 0.8]]
    assert b.tolist() == [0.5, 1.0]


def test_labeller_first_cell_wins_ties_and_bare_cell_is_everything():
    X = np.array([[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0]])
    left = {0: Halfspace((1.0, 0.0), 0.0)}
    labels, margin = label_samples(X, cell_matrices([(3, left), (1, left)], 2))
    assert labels.tolist() == [3, 3, 3]
    assert margin.tolist() == [0.0, 0.5, 0.5]
    labels, margin = label_samples(X, cell_matrices([(3, left), (0, {})], 2))
    assert labels.tolist() == [0, 0, 0]
    assert np.isinf(margin).all()


def test_cells_flagged_empty_label_no_sample():
    # with every cell flagged empty no cell claims a sample: each one is a
    # disagreement, at an infinite distance gap
    labels, margin = label_samples(np.zeros((3, 2)), cell_matrices([], 2))
    assert labels.tolist() == [-1, -1, -1] and np.isinf(margin).all()
    hubs = [(1.0, 0.0, 0.0), (0.8, 0.6, 0.0)]  # hemisphere lifts of (0, 0) and (0.6, 0)
    report = verify_cells([(0, True, {}), (1, True, {})], hubs, 1.0, 50, 3)
    assert report.checked == report.disagreements == 50 and report.witness["diagram_label"] == -1
    assert report.max_gap == np.inf
