"""Independent check of the program's outputs.

Uses none of the program's own check code.  Samples are drawn here,
labelled from a diagram document's stored cell halfspaces, and compared
with the hyperbolic nearest site of the document's echoed input points,
all vectorised with numpy.  Samples within `BAND` of a cell boundary or of
an oracle tie are skipped.  Adjacency and Delaunay content are not
checked, because a correct program may legitimately change them.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

BAND = 1e-7


def _number(v) -> float:
    return float(Fraction(v)) if isinstance(v, str) else float(v)


def _matrix(rows) -> np.ndarray:
    return np.array([[_number(c) for c in row] for row in rows], dtype=float)


def klein_points(input_doc: dict) -> np.ndarray:
    """Echoed input points in the unit-Klein chart."""
    points = _matrix(input_doc["points"])
    model = input_doc["model"]
    if model == "klein":
        return points
    if model == "hemisphere":
        return points[:, 1:]  # vertical projection; x0 comes first
    raise ValueError(f"model {model!r} is not covered by the benchmark's oracle")


def ball_samples(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """Uniform samples in the open unit d-ball."""
    directions = rng.standard_normal((count, d))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    return directions * rng.random(count)[:, None] ** (1.0 / d)


def check_document(doc: dict, samples: np.ndarray) -> str | None:
    """None when every checked sample's cell is its nearest site."""
    P = klein_points(doc["input"])
    # cosh of the hyperbolic distance, without the factor common to a sample
    score = (1.0 - samples @ P.T) / np.sqrt(1.0 - (P * P).sum(axis=1))[None, :]
    oracle = np.argmin(score, axis=1)
    two = np.partition(score, 1, axis=1)[:, :2] if len(P) > 1 else None
    tie = (
        two[:, 1] - two[:, 0] <= BAND * two[:, 0]
        if two is not None
        else np.zeros(len(samples), dtype=bool)
    )

    cells = doc["cells"]
    worst = np.full((len(samples), len(cells)), np.inf)
    margin = np.full((len(samples), len(cells)), np.inf)
    sites = np.array([int(cell["site"]) for cell in cells])
    for k, cell in enumerate(cells):
        if cell["empty"]:
            continue
        halfspaces = cell["halfspaces"]
        if not halfspaces:
            worst[:, k] = -np.inf
            continue
        A = _matrix(h["normal"] for h in halfspaces)
        b = np.array([_number(h["offset"]) for h in halfspaces])
        norms = np.linalg.norm(A, axis=1)
        norms[norms == 0.0] = 1.0
        values = (samples @ A.T + b) / norms
        worst[:, k] = values.max(axis=1)
        margin[:, k] = np.abs(values).min(axis=1)

    rows = np.arange(len(samples))
    best = np.argmin(worst, axis=1)
    checked = (margin[rows, best] >= BAND) & ~tie
    hole = worst[rows, best] > BAND
    wrong = checked & ((sites[best] != oracle) | hole)
    if not checked.any():
        return "no sample outside the boundary band"
    if wrong.any():
        k = int(np.argmax(wrong))
        where = "in no cell" if hole[k] else f"in cell {int(sites[best[k]])}"
        return (
            f"{int(wrong.sum())} of {int(checked.sum())} samples disagree; "
            f"first at {samples[k].tolist()}: {where}, nearest site {int(oracle[k])}"
        )
    return None


def check_verdict(exit_code: int, stdout: str, samples: int) -> str | None:
    """None when a CLI `check` passed on the requested number of samples."""
    if exit_code != 0:
        return f"check exited {exit_code}: {stdout.strip().splitlines()[-1:]}"
    if f"samples: {samples}" not in stdout.splitlines():
        return f"check did not report {samples} samples"
    return None
