import ast
import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

from hypervoronoi import ModelPoint, ModelTag, convert, hvd, power, verify, voronoi
from hypervoronoi.cli import _check_stored_diagram, _parser, _print_report, build_parser, main
from hypervoronoi.documents import (
    diagram_to_document,
    dump_json,
    load_diagram,
    parse_diagram,
    parse_point_set,
)
from hypervoronoi.errors import NumericalUnderflow
from hypervoronoi.hvd import BOUNDARY_BAND, sample_labels
from hypervoronoi.sampling import (
    rational_hemisphere_points,
    random_klein_points,
)
from util import unbounded_star_points, wheel_points


def write_point_set(path, points, model="klein", scalar="float64", curvature=-1.0, dim=2):
    doc = {
        "dimension": dim,
        "curvature": curvature,
        "model": model,
        "scalar": scalar,
        "points": [list(p) for p in points],
    }
    path.write_text(dump_json(doc))
    return path


def write_exact_hemisphere(path, n=8, seed=3, dim=2):
    pts = rational_hemisphere_points(n, dim, seed=seed)
    doc = {
        "dimension": dim,
        "curvature": "-1/1",
        "model": "hemisphere",
        "scalar": "exact-rational",
        "points": [[f"{c.numerator}/{c.denominator}" for c in p] for p in pts],
    }
    path.write_text(dump_json(doc))
    return path


# --- documents ---------------------------------------------------------------

def test_point_set_round_trip_exact(tmp_path):
    p = write_exact_hemisphere(tmp_path / "h.json")
    doc = parse_point_set(json.loads(p.read_text()))
    assert doc.exact
    assert all(isinstance(c, Fraction) for pt in doc.points for c in pt)
    again = dump_json(doc.to_json())
    assert json.loads(again) == json.loads(p.read_text())


def test_point_set_schema_errors():
    with pytest.raises(Exception):
        parse_point_set({"dimension": 2})
    from hypervoronoi.errors import ParseError

    with pytest.raises(ParseError):
        parse_point_set({"dimension": 2, "model": "klein", "points": []})
    with pytest.raises(ParseError):
        parse_point_set(
            {"dimension": 2, "model": "klein", "points": [[0.1, 0.2, 0.3]]}
        )


# --- compute -----------------------------------------------------------------

def test_compute_two_site_fixture(tmp_path, capsys):
    inp = write_point_set(tmp_path / "two.json", [(0.5, 0.0), (-0.5, 0.0)])
    out = tmp_path / "dia.json"
    assert main(["compute", str(inp), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "hypervoronoi-diagram/1"
    (boundary,) = doc["boundaries"]
    assert boundary["class"] == "hyperplane-through-origin"
    assert boundary["lambda"] == 0.0
    assert boundary["b"] == 0.0
    assert doc["delaunay"]["edges"] == [[0, 1]]


def test_compute_deterministic_bytes(tmp_path):
    inp = write_point_set(tmp_path / "p.json", random_klein_points(9, seed=4))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["compute", str(inp), "-o", str(out1)]) == 0
    assert main(["compute", str(inp), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_compute_exact_hemisphere_route_bit_identical(tmp_path):
    inp = write_exact_hemisphere(tmp_path / "h.json")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code = main(
            ["compute", str(inp), "--route", "hemisphere", "--exact", "-o", str(out)]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    # exact documents carry fraction strings
    hs = doc["cells"][0]["halfspaces"][0]
    assert isinstance(hs["offset"], str) and "/" in hs["offset"]


def test_compute_exact_klein_route_exits_5(tmp_path):
    # a Klein point with irrational lift: sqrt(1 - 1/9) is not rational
    doc = {
        "dimension": 2,
        "curvature": "-1/1",
        "model": "klein",
        "scalar": "exact-rational",
        "points": [["1/3", "0/1"], ["0/1", "1/2"]],
    }
    inp = tmp_path / "k.json"
    inp.write_text(dump_json(doc))
    code = main(["compute", str(inp), "--route", "klein", "-o", "-"])
    assert code == 5


def test_compute_exact_klein_route_ok_for_rational_lifts(tmp_path):
    # points from the rational sphere parametrization have rational lifts,
    # so even the klein route's square root is exact for them
    inp = write_exact_hemisphere(tmp_path / "h.json")
    out = tmp_path / "d.json"
    assert main(["compute", str(inp), "--route", "klein", "-o", str(out)]) == 0
    hs = json.loads(out.read_text())["cells"][0]["halfspaces"][0]
    assert isinstance(hs["offset"], str)


def test_compute_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["compute", str(bad)]) == 2


def test_compute_domain_violation_exit_3(tmp_path, capsys):
    inp = write_point_set(tmp_path / "p.json", [(1.5, 0.0)])
    assert main(["compute", str(inp)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: domain:")
    assert "\n" not in err.strip()


def test_compute_with_verification_section(tmp_path):
    inp = write_point_set(tmp_path / "p.json", random_klein_points(5, seed=6))
    out = tmp_path / "d.json"
    assert main(["compute", str(inp), "--verify", "500", "--seed", "7", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verification"]["agreement_rate"] == 1.0
    assert doc["verification"]["sample_count"] == 500


# --- convert -----------------------------------------------------------------

def test_convert_klein_to_hyperboloid(tmp_path):
    inp = write_point_set(tmp_path / "p.json", [(0.6, 0.0)])
    out = tmp_path / "l.json"
    assert main(["convert", str(inp), "--to", "hyperboloid", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["model"] == "hyperboloid"
    assert doc["points"][0] == pytest.approx([1.25, 0.75, 0.0], abs=1e-12)


def test_convert_identity_is_byte_identical(tmp_path):
    inp = write_point_set(tmp_path / "p.json", random_klein_points(4, seed=2))
    out = tmp_path / "k.json"
    assert main(["convert", str(inp), "--to", "klein", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["points"] == json.loads(inp.read_text())["points"]


def test_convert_round_trip_poincare(tmp_path):
    inp = write_point_set(tmp_path / "p.json", random_klein_points(6, seed=12))
    mid = tmp_path / "poincare.json"
    back = tmp_path / "back.json"
    assert main(["convert", str(inp), "--to", "poincare", "-o", str(mid)]) == 0
    assert main(["convert", str(mid), "--to", "klein", "-o", str(back)]) == 0
    orig = json.loads(inp.read_text())["points"]
    rt = json.loads(back.read_text())["points"]
    for a, b in zip(orig, rt):
        assert a == pytest.approx(b, abs=1e-12)


def test_convert_exact_square_root_path_exits_5(tmp_path):
    doc = {
        "dimension": 2,
        "curvature": "-1/1",
        "model": "klein",
        "scalar": "exact-rational",
        "points": [["1/3", "0/1"]],
    }
    inp = tmp_path / "k.json"
    inp.write_text(dump_json(doc))
    assert main(["convert", str(inp), "--to", "poincare", "-o", "-"]) == 5


def test_convert_exact_rational_lift_succeeds(tmp_path):
    doc = {
        "dimension": 2,
        "curvature": "-1/1",
        "model": "klein",
        "scalar": "exact-rational",
        "points": [["3/5", "0/1"]],
    }
    inp = tmp_path / "k.json"
    out = tmp_path / "l.json"
    inp.write_text(dump_json(doc))
    assert main(["convert", str(inp), "--to", "hyperboloid", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["points"][0] == ["5/4", "3/4", "0/1"]


# --- delaunay ----------------------------------------------------------------

def test_delaunay_three_sites(tmp_path, capsys):
    inp = write_point_set(tmp_path / "p.json", [(0.3, 0.0), (-0.2, 0.25), (-0.1, -0.3)])
    assert main(["delaunay", str(inp)]) == 0
    section = json.loads(capsys.readouterr().out)
    assert section["faces"] == [[0, 1, 2]]
    assert section["is_triangulation"] is True


def test_delaunay_star_tree(tmp_path, capsys):
    inp = write_point_set(tmp_path / "p.json", unbounded_star_points(8, 0.998))
    assert main(["delaunay", str(inp)]) == 0
    section = json.loads(capsys.readouterr().out)
    assert section["is_triangulation"] is False
    assert section["faces"] == []
    assert len(section["edges"]) == 8


def test_delaunay_cocircular_quad(tmp_path, capsys):
    inp = write_point_set(
        tmp_path / "p.json", [(0.4, 0.0), (0.0, 0.4), (-0.4, 0.0), (0.0, -0.4)]
    )
    assert main(["delaunay", str(inp)]) == 0
    section = json.loads(capsys.readouterr().out)
    assert section["faces"] == [[0, 1, 2, 3]]
    assert section["is_triangulation"] is False


def test_delaunay_dimension_exit_4(tmp_path):
    pts = random_klein_points(6, d=4, seed=5)
    inp = write_point_set(tmp_path / "p.json", pts, dim=4)
    assert main(["delaunay", str(inp)]) == 4


# --- render --------------------------------------------------------------------

def render_fixture(tmp_path, points, model="klein"):
    inp = write_point_set(tmp_path / "p.json", points)
    dia = tmp_path / "d.json"
    assert main(["compute", str(inp), "-o", str(dia)]) == 0
    svg = tmp_path / f"{model}.svg"
    assert main(["render", str(dia), "--model", model, "-o", str(svg)]) == 0
    return svg.read_text()


def test_render_two_sites_klein_single_chord(tmp_path):
    svg = render_fixture(tmp_path, [(0.5, 0.0), (-0.5, 0.0)])
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert root.attrib["version"] == "1.1"
    lines = [el for el in root.iter() if el.tag.endswith("line")]
    assert len(lines) == 1  # exactly one separating chord


def test_render_wheel_chords_pass_through_center(tmp_path):
    svg = render_fixture(tmp_path, wheel_points(8, 0.6))
    root = ET.fromstring(svg)
    width = float(root.attrib["width"])
    cx = cy = width / 2.0
    lines = [el for el in root.iter() if el.tag.endswith("line")]
    # 8 sectors: 8 separating chords (plus no domain line in ball models)
    assert len(lines) == 8
    for el in lines:
        x1, y1 = float(el.attrib["x1"]), float(el.attrib["y1"])
        x2, y2 = float(el.attrib["x2"]), float(el.attrib["y2"])
        num = abs((x2 - x1) * (cy - y1) - (y2 - y1) * (cx - x1))
        dist = num / math.hypot(x2 - x1, y2 - y1)
        assert dist < 0.5  # pixels


def test_render_poincare_uses_arcs(tmp_path):
    svg = render_fixture(tmp_path, random_klein_points(6, seed=13), model="poincare")
    assert "<path" in svg and " A " in svg  # native arc segments


def test_render_upper_half_space(tmp_path):
    svg = render_fixture(tmp_path, random_klein_points(5, seed=14), model="upper-half-space")
    root = ET.fromstring(svg)
    assert root.attrib["version"] == "1.1"


def test_render_rejects_high_dimension(tmp_path):
    pts = random_klein_points(5, d=3, seed=5)
    inp = write_point_set(tmp_path / "p.json", pts, dim=3)
    dia = tmp_path / "d.json"
    assert main(["compute", str(inp), "-o", str(dia)]) == 0
    assert main(["render", str(dia), "--model", "klein", "-o", "-"]) == 4


def test_render_consumes_document_only(tmp_path):
    # rendering works after deleting everything but the document
    inp = write_point_set(tmp_path / "p.json", random_klein_points(7, seed=21))
    dia = tmp_path / "d.json"
    assert main(["compute", str(inp), "-o", str(dia)]) == 0
    inp.unlink()
    out = tmp_path / "x.svg"
    assert main(["render", str(dia), "--model", "poincare", "-o", str(out)]) == 0
    assert out.read_text().startswith("<?xml")


# --- check ---------------------------------------------------------------------

def test_check_single_site(tmp_path, capsys):
    inp = write_point_set(tmp_path / "p.json", [(0.2, 0.1)])
    assert main(["check", str(inp), "--samples", "300"]) == 0
    out = capsys.readouterr().out
    assert "agreement: 1.000000" in out
    assert "PASS" in out


def test_check_sixteen_site_acceptance_fixture(tmp_path, capsys):
    inp = write_point_set(tmp_path / "p.json", random_klein_points(16, seed=42))
    assert main(["check", str(inp), "--samples", "10000", "--seed", "42"]) == 0
    assert "agreement: 1.000000" in capsys.readouterr().out


def test_check_exact_d3_document_passes(tmp_path, capsys):
    inp = write_exact_hemisphere(tmp_path / "p.json", n=20, seed=1, dim=3)
    dia = tmp_path / "d.json"
    assert main(["compute", str(inp), "--route", "hemisphere", "-o", str(dia)]) == 0
    for source in (dia, inp):
        capsys.readouterr()
        assert main(["check", str(source), "--samples", "5000", "--route", "hemisphere"]) == 0
        assert "PASS" in capsys.readouterr().out


# sha256 of the `compute --route hemisphere` documents of exact hemisphere
# inputs (seed 1): exact documents change only by a declared change (the
# last one: in-ball adjacency, the clip ball's window, rings least first).
# The n = 200 and n = 40 digests were taken from the Fraction clipper,
# before the integer homogeneous one replaced it.
EXACT_DOCUMENT_SHA256 = {
    (2, 50): "50f63abd2410d12d118cc321fa20b64d710d500e1d0fdf64691cc90caaf7718f",
    (2, 200): "0db59d3dcc5506d9ee4f7bfe134794e73f714887f42292aa8bd966c85d773342",
    (3, 20): "d511cf4847cafd6d86dd2b28654f1548677fb89375a13c6d653eb59525658f74",
    (3, 40): "bea774f2d59da0ac80ef9d9783f606373556401e409ea648d46cfad828f79b83",
}


@pytest.mark.parametrize("dim, n", sorted(EXACT_DOCUMENT_SHA256))
def test_exact_documents_are_pinned(tmp_path, dim, n):
    inp = write_exact_hemisphere(tmp_path / "p.json", n=n, seed=1, dim=dim)
    out = tmp_path / "d.json"
    assert main(["compute", str(inp), "--route", "hemisphere", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXACT_DOCUMENT_SHA256[dim, n]


# sha256 of the Klein `compute` documents of `random_klein_points` (seed 1),
# the benchmark's float sizes: the float route is pinned as the exact one is.
FLOAT_DOCUMENT_SHA256 = {
    (2, 200): "abe45c9c484607e617233db353c1bc3fff53e90fde592bbdfdc76c2356069e2b",
    (3, 50): "b30e9998f15774e954aac94af1bb5f61991ec5d0d77615189be70ac9758ea592",
}


@pytest.mark.parametrize("dim, n", sorted(FLOAT_DOCUMENT_SHA256))
def test_float_documents_are_pinned(tmp_path, dim, n):
    inp = write_point_set(tmp_path / "p.json", random_klein_points(n, dim, seed=1), dim=dim)
    out = tmp_path / "d.json"
    assert main(["compute", str(inp), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FLOAT_DOCUMENT_SHA256[dim, n]


# sha256 of the `compute --verify 2000 --seed 42` and `delaunay` outputs of
# float Klein (`random_klein_points`) and exact hemisphere inputs, seed 1:
# the verification section and the Delaunay document are pinned as
# `compute` is.
COMMAND_OUTPUT_SHA256 = {
    ("verify", "klein", 2, 200): "f7e8b1014c0540579aa13e2654cffdb604fc94dcb89d377d56a7b0f037cb54c7",
    ("verify", "klein", 3, 50): "cd1b424a7f3c4a7f97bdda3059ec9210568addd961b377ece81a265b98409635",
    ("verify", "hemisphere", 2, 50): "7cca0949fbf8c01159e554c08f313df18c0b059f695e114912af2858c0748db8",
    ("delaunay", "klein", 2, 200): "3e52ebc4836a1a4c1f2316c09e64934d1f54344a6fea2840cfa3e4a80527129f",
    ("delaunay", "klein", 3, 50): "763c93f72eb4b1ac8bfffd4631798355d2b371bfcfc62ad12399730cb1b36adf",
    ("delaunay", "hemisphere", 2, 50): "2849312d169b9a8b6c4075fe514531be9d6b703dc829d29f53e94868bfb67f09",
}


@pytest.mark.parametrize("command, route, dim, n", sorted(COMMAND_OUTPUT_SHA256))
def test_verify_and_delaunay_outputs_are_pinned(tmp_path, command, route, dim, n):
    if route == "klein":
        inp = write_point_set(tmp_path / "p.json", random_klein_points(n, dim, seed=1), dim=dim)
    else:
        inp = write_exact_hemisphere(tmp_path / "p.json", n=n, seed=1, dim=dim)
    out = tmp_path / "out.json"
    argv = ["compute", str(inp), "--verify", "2000", "--seed", "42"] if command == "verify" else ["delaunay", str(inp)]
    assert main(argv + ["--route", route, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COMMAND_OUTPUT_SHA256[command, route, dim, n]


# sha256 of the `render --model <model>` SVG of the Klein `compute` document
# of `random_klein_points(200, 2, seed=1)`: every boundary's class (a
# sphere, a hyperplane, ...) decides how the SVG draws it.
RENDER_SHA256 = {
    "klein": "18ba70567a74bd53d83d98e58049502d89711d42951f5a9b579769f26e466f28",
    "poincare": "2539c2902c20811e4b854602d5c5566d6a59c550f234a0869568b74d844065b4",
    "upper-half-space": "06913de0b3746425faf33adaf12bd72091e8f5f3e703565f8e034b763f617131",
}


@pytest.mark.parametrize("model", sorted(RENDER_SHA256))
def test_render_outputs_are_pinned(tmp_path, model):
    inp = write_point_set(tmp_path / "p.json", random_klein_points(200, 2, seed=1))
    dia, out = tmp_path / "d.json", tmp_path / "d.svg"
    assert main(["compute", str(inp), "-o", str(dia)]) == 0
    assert main(["render", str(dia), "--model", model, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RENDER_SHA256[model]


def test_check_huge_exact_coefficients_report_as_scaled(tmp_path, capsys):
    # a stored halfspace times 10**400 is the same halfspace; its floats
    # would overflow without the power-of-two row scaling
    inp = write_exact_hemisphere(tmp_path / "p.json", n=8, seed=5)
    dia = tmp_path / "d.json"
    assert main(["compute", str(inp), "--route", "hemisphere", "-o", str(dia)]) == 0
    doc = json.loads(dia.read_text())
    for cell in doc["cells"][:3]:
        h = cell["halfspaces"][0]
        h["normal"] = [str(Fraction(c) * 10**400) for c in h["normal"]]
        h["offset"] = str(Fraction(h["offset"]) * 10**400)
    scaled = tmp_path / "scaled.json"
    scaled.write_text(dump_json(doc))
    capsys.readouterr()
    assert main(["check", str(dia), "--samples", "3000"]) == 0
    want = capsys.readouterr().out.splitlines()[1:]
    assert main(["check", str(scaled), "--samples", "3000"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == want
    # a huge offset is a wrong halfspace: a disagreement, not a traceback
    doc["cells"][0]["halfspaces"][0]["offset"] = "1" + "0" * 400 + "/1"
    scaled.write_text(dump_json(doc))
    assert main(["check", str(scaled), "--samples", "3000"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_stored_diagram_passes(tmp_path, capsys):
    inp = write_point_set(tmp_path / "p.json", random_klein_points(8, seed=11))
    dia = tmp_path / "d.json"
    assert main(["compute", str(inp), "-o", str(dia)]) == 0
    assert main(["check", str(dia), "--samples", "2000"]) == 0
    assert "stored diagram" in capsys.readouterr().out


def test_check_corrupted_diagram_fails_with_witness(tmp_path, capsys):
    inp = write_point_set(tmp_path / "p.json", random_klein_points(8, seed=11))
    dia = tmp_path / "d.json"
    assert main(["compute", str(inp), "-o", str(dia)]) == 0
    doc = json.loads(dia.read_text())
    # swap the halfspace data of the first two cells: labels go wrong
    c0, c1 = doc["cells"][0], doc["cells"][1]
    c0["halfspaces"], c1["halfspaces"] = c1["halfspaces"], c0["halfspaces"]
    dia.write_text(dump_json(doc))
    assert main(["check", str(dia), "--samples", "2000"]) == 1
    out = capsys.readouterr().out
    assert "witness:" in out
    assert "FAIL" in out
    # the witness names the facet of the oracle site's stored cell that
    # excludes the sample: the neighbor whose unit-normal row is largest there
    witness = _check_stored_diagram(load_diagram(dia), 2000, 42).witness
    assert f"oracle={witness['oracle_label']} facet={witness['facet']} " in out
    x = witness["chart_point"]
    (cell,) = [c for c in doc["cells"] if c["site"] == witness["oracle_label"]]
    rows = {
        h["neighbor"]: (sum(a * b for a, b in zip(h["normal"], x)) + h["offset"]) / math.hypot(*h["normal"])
        for h in cell["halfspaces"]
    }
    assert witness["facet"] == max(rows, key=rows.get) and rows[witness["facet"]] > 0


def test_check_fails_only_where_a_cell_rewritten_as_empty_is(tmp_path, capsys):
    """A cell flagged empty labels no sample: its samples go to the cells
    around it, so `check` fails there and agrees everywhere else."""
    pts = random_klein_points(12, seed=31)
    inp, stored, k = write_point_set(tmp_path / "p.json", pts), tmp_path / "d.json", 4
    assert main(["compute", str(inp), "-o", str(stored)]) == 0
    doc = json.loads(stored.read_text())
    doc["cells"][k] = {"site": k, "empty": True, "halfspaces": []}
    stored.write_text(dump_json(doc))
    capsys.readouterr()
    assert main(["check", str(stored), "--samples", "4000", "--seed", "7"]) == 1
    out = capsys.readouterr().out
    assert 0.5 < float(re.search(r"agreement: (\S+)", out).group(1)) < 1
    assert f"oracle={k} facet=none " in out and "FAIL" in out  # a cell flagged empty has no facet
    dia = voronoi([ModelPoint(ModelTag.KLEIN, p) for p in pts])
    dia.complex.cells[k].empty, dia.complex.cells[k].halfspaces = True, {}
    _, labels, oracle, margin = sample_labels(dia, 4000, 7)
    wrong = (labels != oracle) & (margin >= BOUNDARY_BAND)
    assert set(oracle[wrong].tolist()) == {k} and (labels != k).all()
    report = _check_stored_diagram(load_diagram(stored), 4000, 7)
    assert report.disagreements == np.count_nonzero(wrong) and report.witness["oracle_label"] == k


def boundary_fan(delta):
    """Thirty Klein points at 1 - |x|^2 = delta, sqrt(delta) rad apart (about
    one apart hyperbolically), and ten interior points."""
    r, step = math.sqrt(1 - delta), math.sqrt(delta)
    return [(r * math.cos(k * step), r * math.sin(k * step)) for k in range(30)] + random_klein_points(10, 2, 7)


@pytest.mark.parametrize("route", ["klein", "hemisphere"])
@pytest.mark.parametrize("delta", [1e-8, 1e-10, 1e-12, 1e-13])
def test_a_cell_built_empty_is_a_typed_error(tmp_path, capsys, monkeypatch, delta, route):
    """A hyperbolic Voronoi cell holds its own site, so a cell the float
    build leaves empty, or one its site lies outside (sites too near the
    boundary for float64), is a defect: `voronoi` raises
    NumericalUnderflow naming the first such site, and `compute` prints
    that one typed line and exits 3, writing no document.  At delta = 1e-8
    and 1e-10 both routes build.  At 1e-12 the hemisphere route leaves no
    cell empty, but 17 of its 40 sites outside their own cells: a wrong
    diagram that `check` passes, caught by the own-site test."""
    built = []

    def recording(*args, **kwargs):
        built.append(power.build_complex(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(hvd, "build_complex", recording)
    pts = [ModelPoint(ModelTag.KLEIN, p) for p in boundary_fan(delta)]
    inp, out = write_point_set(tmp_path / "p.json", boundary_fan(delta)), tmp_path / "d.json"
    if delta > 1e-12:
        assert not any(cell.empty for cell in voronoi(pts, route=route).complex.cells)
        assert main(["compute", str(inp), "--route", route, "-o", str(out)]) == 0
        assert main(["check", str(out), "--samples", "2000"]) == 0
        return
    with pytest.raises(NumericalUnderflow) as err:
        voronoi(pts, route=route)
    empty = [i for i, cell in enumerate(built[-1].cells) if cell.empty]
    if empty:
        assert str(err.value).startswith(f"site {empty[0]}: its cell is empty")
    else:
        assert (delta, route) == (1e-12, "hemisphere")
        assert str(err.value).startswith(f"site {_outside_own_cells(built[-1], pts, route)[0]}: it lies ")
    capsys.readouterr()
    assert main(["compute", str(inp), "--route", route, "-o", str(out)]) == 3
    assert capsys.readouterr().err == f"error: domain: {err.value}\n"
    assert not out.exists()


def _outside_own_cells(cx, pts, route):
    """The sites whose Klein point lies on the far side of a row of their
    own cell, in plain Python floats."""
    kleins = [h[1:] for h in hvd.oracle_hubs(pts, route)]
    return [i for i, (p, cell) in enumerate(zip(kleins, cx.cells))
            if any(sum(a * float(x) for a, x in zip(hs.normal, p)) + hs.offset > 0 for hs in cell.halfspaces.values())]


def origin_cluster(spacing):
    """The origin, four points spacing from it on the axes, and two far
    points: near the origin h = 1 / sqrt(1 - |p|^2) rounds to 1.0, so the
    float rows between the five lose the sites' spacing."""
    e = spacing
    return [(0.0, 0.0), (e, 0.0), (-e, 0.0), (0.0, e), (0.0, -e), (0.5, 0.5), (-0.5, 0.3)]


@pytest.mark.parametrize("route", ["klein", "hemisphere"])
def test_a_site_outside_its_own_cell_is_a_typed_error(tmp_path, capsys, monkeypatch, route):
    """At spacing 1e-8 the origin cluster builds with no empty cell, but
    sites 1 to 4 lie 1.2e-8 outside their own cells, and `verify` finds no
    disagreement: the own-site test raises NumericalUnderflow naming site
    1, and `compute` exits 3.  At 1e-9 a cell is empty, whose error names
    both causes; at 3e-8 the cluster builds."""
    pts = [ModelPoint(ModelTag.KLEIN, p) for p in origin_cluster(1e-8)]
    with pytest.raises(NumericalUnderflow, match="^site 1: it lies 1.22e-08 outside its own cell") as err:
        voronoi(pts, route=route)
    assert "too near the boundary or too near each other" in str(err.value)
    inp, out = write_point_set(tmp_path / "p.json", origin_cluster(1e-8)), tmp_path / "d.json"
    capsys.readouterr()
    assert main(["compute", str(inp), "--route", route, "-o", str(out)]) == 3
    assert capsys.readouterr().err == f"error: domain: {err.value}\n"
    assert not out.exists()
    with monkeypatch.context() as m:
        m.setattr(hvd, "OWN_SITE_TOL", math.inf)
        dia = voronoi(pts, route=route)
    assert _outside_own_cells(dia.complex, pts, route) == [1, 2, 3, 4]
    assert verify(dia, 4000).disagreements == 0
    with pytest.raises(NumericalUnderflow, match="^site 0: its cell is empty .* too near each other"):
        voronoi([ModelPoint(ModelTag.KLEIN, p) for p in origin_cluster(1e-9)], route=route)
    pts = [ModelPoint(ModelTag.KLEIN, p) for p in origin_cluster(3e-8)]
    assert not _outside_own_cells(voronoi(pts, route=route).complex, pts, route)


@pytest.mark.parametrize("route", ["klein", "hemisphere"])
def test_a_close_pair_near_the_boundary_is_a_typed_error(tmp_path, capsys, monkeypatch, route):
    """Upper half-space points (0, 1e4) and (1, 1e4), 1e-4 apart
    hyperbolically at Klein depth 1 - |p|^2 = 4e-8: float64 builds a
    bisector tilted by 27 to 29 degrees, which puts a site outside its own
    cell while `verify` finds no disagreement.  `compute` exits 3."""
    raw = [(0.0, 1e4), (1.0, 1e4)]
    pts = [ModelPoint(ModelTag.UPPER_HALF_SPACE, p) for p in raw]
    inp, out = write_point_set(tmp_path / "p.json", raw, model="upper-half-space"), tmp_path / "d.json"
    with pytest.raises(NumericalUnderflow, match=r"^site \d: it lies .* outside its own cell"):
        voronoi(pts, route=route)
    capsys.readouterr()
    assert main(["compute", str(inp), "--route", route, "-o", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: domain: site ")
    with monkeypatch.context() as m:
        m.setattr(hvd, "OWN_SITE_TOL", math.inf)
        dia = voronoi(pts, route=route)
    assert _outside_own_cells(dia.complex, pts, route)
    assert verify(dia, 2000).disagreements == 0


@pytest.mark.parametrize("x, route", [(1e-6, "klein"), (1e-6, "hemisphere"), (1e-3, "klein")])
def test_a_site_on_its_own_cell_s_row_is_a_typed_error(tmp_path, capsys, monkeypatch, x, route):
    """Upper half-space points (0, 1e4) and (x, 1e4): float64 builds the
    bisector x = 0, through site 0, where the exact build's lies midway
    between the sites.  Site 0's row value is 0, not below OWN_SITE_TOL,
    so the own-site test raises and `compute` exits 3."""
    raw = [(0.0, 1e4), (x, 1e4)]
    pts = [ModelPoint(ModelTag.UPPER_HALF_SPACE, p) for p in raw]
    with pytest.raises(NumericalUnderflow, match="^site 0: it lies on the boundary of its own cell in float64") as err:
        voronoi(pts, route=route)
    inp, out = write_point_set(tmp_path / "p.json", raw, model="upper-half-space"), tmp_path / "d.json"
    capsys.readouterr()
    assert main(["compute", str(inp), "--route", route, "-o", str(out)]) == 3
    assert capsys.readouterr().err == f"error: domain: {err.value}\n"
    assert not out.exists()
    with monkeypatch.context() as m:
        m.setattr(hvd, "OWN_SITE_TOL", math.inf)
        dia = voronoi(pts, route=route)
    hs = dia.complex.cells[0].halfspaces[1]
    assert (hs.normal, hs.offset) == ((1.0, 0.0), 0.0)


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("fixture", ["float", "exact"])
def test_verify_and_stored_check_report_identically(tmp_path, capsys, fixture, corrupt):
    if fixture == "float":
        pts = [ModelPoint(ModelTag.KLEIN, p) for p in random_klein_points(12, seed=31)]
        dia = voronoi(pts)
    else:
        hpts = rational_hemisphere_points(10, seed=91)
        dia = voronoi([ModelPoint(ModelTag.HEMISPHERE, p) for p in hpts], route="hemisphere")
    if corrupt:
        c0, c1 = dia.complex.cells[0], dia.complex.cells[1]
        c0.halfspaces, c1.halfspaces = c1.halfspaces, c0.halfspaces
    stored = tmp_path / "d.json"
    stored.write_text(diagram_to_document(dia))
    report = verify(dia, 3000, 17)
    assert report.ok is not corrupt
    assert main(["check", str(stored), "--samples", "3000", "--seed", "17"]) == int(corrupt)
    cli_lines = capsys.readouterr().out.splitlines()[1:]
    _print_report(report, "library")
    assert capsys.readouterr().out.splitlines()[1:] == cli_lines
    from_doc = _check_stored_diagram(load_diagram(stored), 3000, 17)
    fields = ("excluded", "checked", "disagreements", "max_gap", "witness")
    assert [getattr(from_doc, f) for f in fields] == [getattr(report, f) for f in fields]


def test_check_reports_plain_without_tty(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    inp = write_point_set(tmp_path / "p.json", [(0.2, 0.1)])
    assert main(["check", str(inp), "--samples", "100"]) == 0
    assert "\x1b[" not in capsys.readouterr().out


# --- cross-model structural agreement (three-model rendering fixture) -----------

def test_adjacency_identical_across_models(tmp_path):
    inp = write_point_set(tmp_path / "k.json", random_klein_points(16, seed=42))
    adjacency = {}
    for model in ("klein", "poincare", "upper-half-space"):
        conv = tmp_path / f"{model}.json"
        if model == "klein":
            conv = inp
        else:
            assert main(["convert", str(inp), "--to", model, "-o", str(conv)]) == 0
        dia = tmp_path / f"{model}-dia.json"
        assert main(["compute", str(conv), "-o", str(dia)]) == 0
        doc = json.loads(dia.read_text())
        adjacency[model] = sorted(map(tuple, doc["adjacency"]))
        svg = tmp_path / f"{model}.svg"
        assert main(["render", str(dia), "--model", model, "-o", str(svg)]) == 0
    assert adjacency["klein"] == adjacency["poincare"] == adjacency["upper-half-space"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "hypervoronoi" in capsys.readouterr().out


# --- argument and document validation -------------------------------------------

def stored_fixture(tmp_path):
    inp = write_point_set(tmp_path / "p.json", random_klein_points(8, seed=11))
    dia = tmp_path / "d.json"
    assert main(["compute", str(inp), "-o", str(dia)]) == 0
    return inp, dia


def assert_parse_error(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse:")
    assert "\n" not in err.strip()


@pytest.mark.parametrize(
    "raw",
    [
        b'{"dimension": 2, "model": "klein", "points": [[1e400, 0.0]]}',
        b'{"dimension": 2, "model": "klein", "points": [[NaN, 0.0]]}',
        b'{"dimension": 2, "model": "klein", "points": [[-Infinity, 0.0]]}',
        b'{"dimension": 2, "model": "klein", "points": [[1' + b"0" * 400 + b', 0.0]]}',
        b'{"dimension": 2, "model": "klein", "curvature": 1e999, "points": [[0.1, 0.0]]}',
        b'\x80{"dimension": 2}',
    ],
    ids=["overflow", "nan", "infinity", "huge-integer", "curvature", "not-utf8"],
)
@pytest.mark.parametrize("command", ["compute", "check"])
def test_non_finite_number_or_bad_bytes_exit_2(tmp_path, capsys, command, raw):
    path = tmp_path / "p.json"
    path.write_bytes(raw)
    assert_parse_error(capsys, [command, str(path)])


@pytest.mark.parametrize("args", [["--seed", "-1"], ["--samples", "0"], ["--samples", "-5"]])
@pytest.mark.parametrize("kind", ["point-set", "diagram"])
def test_check_bad_sampling_arguments_exit_2(tmp_path, capsys, kind, args):
    inp, dia = stored_fixture(tmp_path)
    source = inp if kind == "point-set" else dia
    assert_parse_error(capsys, ["check", str(source), *args])


@pytest.mark.parametrize(
    "args", [["--verify", "-1"], ["--seed", "-3"], ["--verify", "100", "--seed", "-3"]]
)
def test_compute_bad_sampling_arguments_exit_2(tmp_path, capsys, args):
    inp, _ = stored_fixture(tmp_path)
    assert_parse_error(capsys, ["compute", str(inp), "-o", str(tmp_path / "o.json"), *args])


@pytest.mark.parametrize("command, kind", [("check", "point-set"), ("check", "diagram"), ("compute", "point-set")])
def test_a_sample_count_the_sampler_cannot_draw_exit_2(tmp_path, capsys, command, kind):
    # 10**20 samples need more raw outputs than one numpy array can hold
    inp, dia = stored_fixture(tmp_path)
    argv = [command, str(inp if kind == "point-set" else dia)]
    if command == "check":
        assert_parse_error(capsys, argv + ["--samples", str(10**20)])
    else:
        assert_parse_error(capsys, argv + ["--verify", str(10**20), "-o", str(tmp_path / "o.json")])
        assert not (tmp_path / "o.json").exists()


def _set_site(cell, value):
    cell["site"] = value


def _set_neighbor(cell, value):
    cell["halfspaces"][0]["neighbor"] = value


def _set_normal(cell, value):
    cell["halfspaces"][0]["normal"] = value


def _set_empty(cell, value):
    cell["empty"] = value


@pytest.mark.parametrize(
    "corrupt, value",
    [
        (_set_normal, [0.1, 0.2, 0.3]),
        (_set_normal, [0.1]),
        (_set_site, 8),
        (_set_site, -1),
        (_set_neighbor, 99),
        (_set_neighbor, -2),
        (_set_neighbor, "1"),
        (_set_empty, "false"),
        (_set_empty, 0),
        (_set_empty, None),
    ],
)
def test_check_malformed_stored_cell_exit_2(tmp_path, capsys, corrupt, value):
    _, dia = stored_fixture(tmp_path)
    doc = json.loads(dia.read_text())
    corrupt(doc["cells"][2], value)
    dia.write_text(dump_json(doc))
    assert_parse_error(capsys, ["check", str(dia), "--samples", "100"])


@pytest.mark.parametrize("value", [True, False])
def test_stored_empty_flag_is_read_as_written(tmp_path, value):
    _, dia = stored_fixture(tmp_path)
    doc = json.loads(dia.read_text())
    doc["cells"][2]["empty"] = value
    assert parse_diagram(doc).cells[2][1] is value


@pytest.mark.parametrize(
    "value", [[0, 1.5], [0, "1"], [True, 1], [0, 99], [-1, 1], [0], [0, 1, 2], "01", None]
)
def test_check_malformed_adjacency_pair_exit_2(tmp_path, capsys, value):
    _, dia = stored_fixture(tmp_path)
    doc = json.loads(dia.read_text())
    doc["adjacency"][0] = value
    dia.write_text(dump_json(doc))
    assert_parse_error(capsys, ["check", str(dia), "--samples", "100"])


def test_a_point_set_of_dimension_one_exit_2(tmp_path, capsys):
    inp = write_point_set(tmp_path / "p.json", [(0.1,), (0.2,)], dim=1)
    for argv in (["compute", str(inp)], ["check", str(inp), "--samples", "100"]):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: parse: dimension must be >= 2, got 1\n"


def test_a_diagram_with_an_unknown_route_exit_2(tmp_path, capsys):
    _, dia = stored_fixture(tmp_path)
    doc = json.loads(dia.read_text())
    doc["route"] = "poincare"
    dia.write_text(dump_json(doc))
    capsys.readouterr()
    assert main(["check", str(dia), "--samples", "100"]) == 2
    assert capsys.readouterr().err.startswith("error: parse: route must be 'klein' or 'hemisphere', got 'poincare'")


def _set_facet_pair(doc, value):
    doc["facets"][0]["pair"] = value


def _set_facet_points(doc, value):
    doc["facets"][0]["points"] = value


def _set_facet_point(doc, value):
    doc["facets"][0]["points"][1] = value


def _set_boundary_pair(doc, value):
    doc["boundaries"][0]["pair"] = value


def _set_boundary_a(doc, value):
    doc["boundaries"][0]["a"] = value


@pytest.mark.parametrize(
    "corrupt, value",
    [
        (_set_facet_pair, [0]),
        (_set_facet_pair, [0, 99]),
        (_set_facet_pair, ["0", 1]),
        (_set_facet_points, [[0.1, 0.2]]),
        (_set_facet_point, [0.1]),
        (_set_boundary_pair, [1]),
        (_set_boundary_a, [0.5]),
    ],
)
def test_render_malformed_facet_or_boundary_exit_2(tmp_path, capsys, corrupt, value):
    _, dia = stored_fixture(tmp_path)
    doc = json.loads(dia.read_text())
    corrupt(doc, value)
    dia.write_text(dump_json(doc))
    svg = str(tmp_path / "x.svg")
    assert_parse_error(capsys, ["render", str(dia), "--model", "poincare", "-o", svg])


def _set_vertex_point(doc, value):
    doc["power_vertices"][0]["point"] = value


def _set_vertex_sites(doc, value):
    doc["power_vertices"][0]["sites"] = value


def _drop_vertex_point(doc, value):
    del doc["power_vertices"][0]["point"]


@pytest.mark.parametrize("command", ["check", "render"])
@pytest.mark.parametrize(
    "corrupt, value",
    [
        (_set_vertex_point, [0.1]),
        (_set_vertex_point, [0.1, 0.2, 0.3]),
        (_set_vertex_point, [math.nan, 0.1]),
        (_set_vertex_point, [0.1, math.inf]),
        (_set_vertex_point, "0.1, 0.2"),
        (_drop_vertex_point, None),
        (_set_vertex_sites, [0, 99]),
        (_set_vertex_sites, [-1, 0, 1]),
        (_set_vertex_sites, [0, 1, 1]),
        (_set_vertex_sites, [0, "1", 2]),
        (_set_vertex_sites, [True, 1, 2]),
        (_set_vertex_sites, [0, 1.0, 2]),
        (_set_vertex_sites, 3),
    ],
)
def test_malformed_power_vertex_exit_2(tmp_path, capsys, command, corrupt, value):
    _, dia = stored_fixture(tmp_path)
    doc = json.loads(dia.read_text())
    corrupt(doc, value)
    dia.write_text(json.dumps(doc))  # json.dumps writes NaN and Infinity literals
    argv = ["check", str(dia), "--samples", "100"]
    if command == "render":
        argv = ["render", str(dia), "-o", str(tmp_path / "x.svg")]
    assert_parse_error(capsys, argv)


def test_power_vertices_are_read_and_optional(tmp_path):
    _, dia = stored_fixture(tmp_path)
    doc = json.loads(dia.read_text())
    parsed = parse_diagram(doc).power_vertices
    assert [(list(p), list(s)) for p, s in parsed] == [
        (v["point"], v["sites"]) for v in doc["power_vertices"]
    ]
    del doc["power_vertices"]
    assert parse_diagram(doc).power_vertices == []
    dia.write_text(dump_json(doc))
    assert main(["check", str(dia), "--samples", "100"]) == 0


def test_boundary_arity_counts_the_ambient_coordinate(tmp_path, capsys):
    inp = write_exact_hemisphere(tmp_path / "p.json")
    dia = tmp_path / "d.json"
    assert main(["compute", str(inp), "-o", str(dia), "--route", "hemisphere"]) == 0
    doc = json.loads(dia.read_text())
    assert len(doc["boundaries"][0]["a"]) == 3
    assert load_diagram(dia).boundaries[0][2] == tuple(
        Fraction(c) for c in doc["boundaries"][0]["a"]
    )
    doc["boundaries"][0]["a"] = doc["boundaries"][0]["a"][:2]
    dia.write_text(dump_json(doc))
    assert_parse_error(capsys, ["check", str(dia), "--samples", "100"])


def test_check_diagram_without_cells_exit_2(tmp_path, capsys):
    _, dia = stored_fixture(tmp_path)
    doc = json.loads(dia.read_text())
    doc["cells"] = []
    dia.write_text(dump_json(doc))
    assert_parse_error(capsys, ["check", str(dia), "--samples", "100"])


def test_compute_hyperboloid_point_far_up_the_sheet(tmp_path, capsys):
    kleins = [(0.6 * (1 - 1e-10), 0.8 * (1 - 1e-10)), (0.1, -0.2), (-0.3, 0.4)]
    points = [convert(ModelPoint(ModelTag.KLEIN, p), ModelTag.HYPERBOLOID).coords for p in kleins]
    inp = write_point_set(tmp_path / "p.json", points, model="hyperboloid")
    assert main(["compute", str(inp), "-o", str(tmp_path / "o.json")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", [[2], None, {}, 2.5, "2", True])
def test_compute_non_integer_dimension_exit_2(tmp_path, capsys, value):
    inp = write_point_set(tmp_path / "p.json", random_klein_points(5, seed=2))
    doc = json.loads(inp.read_text())
    doc["dimension"] = value
    inp.write_text(json.dumps(doc))
    assert_parse_error(capsys, ["compute", str(inp), "-o", str(tmp_path / "o.json")])


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "{points}", "--model", "bogus", "-o", "{out}"],
        ["delaunay", "{points}", "--model", "bogus", "-o", "{out}"],
        ["check", "{points}", "--model", "bogus"],
        ["convert", "{points}", "--to", "bogus", "-o", "{out}"],
        ["convert", "{points}", "--to", "klein", "--model", "bogus", "-o", "{out}"],
        ["render", "{diagram}", "--model", "bogus", "-o", "{out}"],
    ],
    ids=["compute", "delaunay", "check", "convert-to", "convert-model", "render"],
)
def test_unknown_model_name_exit_2(tmp_path, capsys, argv):
    inp, dia = stored_fixture(tmp_path)
    capsys.readouterr()
    assert main([a.format(points=inp, diagram=dia, out=tmp_path / "out") for a in argv]) == 2
    assert capsys.readouterr().err == "error: parse: unknown model 'bogus'\n"


@pytest.mark.parametrize("width", ["-5", "0"])
def test_render_width_below_one_exit_2(tmp_path, capsys, width):
    _, dia = stored_fixture(tmp_path)
    assert_parse_error(capsys, ["render", str(dia), "--width", width, "-o", str(tmp_path / "o.svg")])
    assert not (tmp_path / "o.svg").exists()


def assert_domain_error(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: domain:")
    return err


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("kappa", ["-inf", "-1e-320"])
def test_curvature_without_a_float_radius_exit_3(tmp_path, capsys, kappa, exact):
    """-inf gives radius 0; -1e-320 a radius past the float range, which
    would send every point to the origin."""
    if exact:
        inp = write_exact_hemisphere(tmp_path / "p.json", n=5)
    else:
        inp = write_point_set(tmp_path / "p.json", random_klein_points(5, seed=2))
    err = assert_domain_error(capsys, ["compute", str(inp), f"--curvature={kappa}", "-o", str(tmp_path / "o.json")])
    assert "radius" in err


def test_curvature_override_equals_the_written_curvature(tmp_path):
    # --curvature applied to a float point set
    pts = [tuple(c / 2 for c in p) for p in random_klein_points(12, seed=6)]
    given = write_point_set(tmp_path / "given.json", pts)
    written = write_point_set(tmp_path / "written.json", pts, curvature=-4.0)
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    assert main(["compute", str(given), "--curvature", "-4", "-o", str(got)]) == 0
    assert main(["compute", str(written), "-o", str(want)]) == 0
    assert got.read_bytes() == want.read_bytes()
    assert json.loads(got.read_text())["input"]["curvature"] == -4.0


def test_exact_override_equals_the_written_rationals(tmp_path):
    # --exact converting a float point set: each coordinate becomes its exact value
    pts = [(0.1, 0.2), (-0.3, 0.25), (0.05, -0.4), (0.35, 0.3), (-0.2, -0.15)]
    given = write_point_set(tmp_path / "given.json", pts, model="poincare")
    written = tmp_path / "written.json"
    written.write_text(dump_json({
        "dimension": 2,
        "curvature": "-1/1",
        "model": "poincare",
        "scalar": "exact-rational",
        "points": [[f"{Fraction(c).numerator}/{Fraction(c).denominator}" for c in p] for p in pts],
    }))
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    assert main(["compute", str(given), "--exact", "--route", "hemisphere", "-o", str(got)]) == 0
    assert main(["compute", str(written), "--route", "hemisphere", "-o", str(want)]) == 0
    assert got.read_bytes() == want.read_bytes()
    assert json.loads(got.read_text())["input"]["scalar"] == "exact-rational"


def _scaled_hemisphere_document(path, kappa, scale, shift=0):
    """Exact hemisphere points at model radius `scale`, moved by `shift`."""
    pts = rational_hemisphere_points(6, seed=5)
    doc = {
        "dimension": 2,
        "curvature": f"{kappa.numerator}/{kappa.denominator}",
        "model": "hemisphere",
        "scalar": "exact-rational",
        "points": [[f"{c * scale + shift}" for c in p] for p in pts],
    }
    path.write_text(dump_json(doc))
    return path


def test_exact_radius_beyond_the_float_exponent_of_kappa(tmp_path, capsys):
    """kappa = -10^-400 underflows as a float; its radius 10^200 does not."""
    inp = _scaled_hemisphere_document(tmp_path / "p.json", Fraction(-1, 10**400), 10**200)
    assert main(["compute", str(inp), "--route", "hemisphere", "-o", str(tmp_path / "o.json")]) == 0
    capsys.readouterr()
    assert main(["check", str(inp), "--samples", "200"]) == 0
    assert main(["check", str(tmp_path / "o.json"), "--samples", "200"]) == 0


def test_exact_point_far_off_the_sphere_exit_3(tmp_path, capsys):
    """kappa = -10^400: the unit coordinates, hence the membership residual,
    lie far past the float range."""
    inp = _scaled_hemisphere_document(tmp_path / "p.json", Fraction(-(10**400)), 1, shift=1)
    assert_domain_error(capsys, ["compute", str(inp), "--route", "hemisphere", "-o", str(tmp_path / "o.json")])
    assert_domain_error(capsys, ["check", str(inp), "--samples", "200"])


@pytest.mark.parametrize("command", ["compute", "check"])
def test_domain_error_line_is_bounded_for_a_huge_exact_residual(tmp_path, capsys, command):
    """x_0 = 10^50000 is off the sphere by a 10^5-digit residual; the line
    gives its sign, four digits and a power of ten."""
    doc = {
        "dimension": 2,
        "curvature": "-1/1",
        "model": "hemisphere",
        "scalar": "exact-rational",
        "points": [["1e50000", "0", "0"], ["1", "0", "0"]],
    }
    inp = tmp_path / "p.json"
    inp.write_text(json.dumps(doc))
    extra = ["--route", "hemisphere", "-o", str(tmp_path / "o.json")] if command == "compute" else ["--samples", "50"]
    err = assert_domain_error(capsys, [command, str(inp), *extra])
    assert err.count("\n") == 1 and len(err) < 200
    assert "1.000e+100000" in err


def _lift(t):
    """The rational hemisphere point over the parameter t in the unit disk."""
    n2 = sum(c * c for c in t)
    return [(1 - n2) / (1 + n2)] + [2 * c / (1 + n2) for c in t]


def _long_parameters(digits):
    big = 10**digits
    return [(Fraction(big // k, 3 * big + 7 * k + 1), Fraction(big + k, 4 * big + 11 * k + 3)) for k in range(1, 7)]


@pytest.mark.parametrize(
    "ts",
    [
        [(Fraction(1, 3**400), Fraction(0)), (Fraction(1, 3), Fraction(1, 5)), (Fraction(-1, 4), Fraction(1, 7))],
        _long_parameters(80),
        _long_parameters(150),
    ],
    ids=["tiny-parameter", "digits-80", "digits-150"],
)
def test_exact_rows_past_the_float_range_compute_check_render(tmp_path, capsys, ts):
    """Parameters with a 3^-400 coordinate or 80- and 150-digit denominators
    give radical hyperplane rows whose integers leave the float range.  The
    exact route never needs them as floats: their float images are scaled
    by a power of two (`scalars.row_floats`), so the diagram computes,
    checks and renders in every model."""
    rows = [[f"{c.numerator}/{c.denominator}" for c in _lift(t)] for t in ts]
    inp = write_point_set(tmp_path / "p.json", rows, "hemisphere", "exact-rational", "-1/1")
    out = tmp_path / "o.json"
    assert main(["compute", str(inp), "--route", "hemisphere", "-o", str(out)]) == 0
    cells = json.loads(out.read_text())["cells"]
    assert max(abs(Fraction(c)) for cell in cells for hs in cell["halfspaces"] for c in hs["normal"]) > 10**308
    assert main(["check", str(out), "--samples", "2000"]) == 0
    for model in ("klein", "poincare", "upper-half-space"):
        svg = tmp_path / f"{model}.svg"
        assert main(["render", str(out), "--model", model, "-o", str(svg)]) == 0
        ET.parse(svg)
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "route, d, n", [("hemisphere", 2, 40), ("klein", 2, 30), ("hemisphere", 3, 15), ("hemisphere", 4, 8)]
)
def test_float_documents_store_unit_normal_halfspaces(tmp_path, route, d, n):
    """A float64 document may write some points as "p/q" strings; its
    halfspaces are still the unit-normal rows of the float route (a zero
    normal has offset +-1), never exact integer rows."""
    pts = rational_hemisphere_points(n, d, seed=3)
    rows = [[f"{c.numerator}/{c.denominator}" for c in p] if k % 2 else list(map(float, p)) for k, p in enumerate(pts)]
    inp = write_point_set(tmp_path / "p.json", rows, "hemisphere", dim=d)
    out = tmp_path / "o.json"
    assert main(["compute", str(inp), "--route", route, "-o", str(out)]) == 0
    halfspaces = [hs for cell in json.loads(out.read_text())["cells"] for hs in cell["halfspaces"]]
    assert len(halfspaces) >= n
    for hs in halfspaces:
        norm = math.sqrt(sum(c * c for c in hs["normal"]))
        assert abs(norm - 1) < 1e-12 or (norm == 0 and abs(hs["offset"]) == 1)


def test_near_coincident_float_sites_exit_3(tmp_path, capsys):
    """Two distinct points 1e-170 apart: the squares of their radical
    hyperplane's normal underflow and its offset is 0, so it has no float
    form.  A typed error naming the pair, not a ZeroDivisionError."""
    pts = [(1e-170, 0.2), (2e-170, 0.2), (0.5, -0.1)]
    inp = write_point_set(tmp_path / "p.json", pts)
    err = assert_domain_error(capsys, ["compute", str(inp), "-o", str(tmp_path / "o.json")])
    assert err == "error: domain: sites 0 and 1: radical hyperplane rounds to zero in float64\n"


def test_klein_route_check_lifts_the_klein_coordinates(tmp_path, capsys):
    """A float hemisphere point whose x0 underflows while its Klein
    coordinates stay inside the ball (allowed by MEMBERSHIP_TOL): the Klein
    route builds on those coordinates, so its oracle lifts them again, and
    does not divide by the given x0 (a divide-by-zero warning, an error
    under the warnings-as-errors test run)."""
    doc = {"dimension": 2, "model": "hemisphere", "scalar": "float64", "points": [[5e-324, 0.0, 0.9999999999999999]]}
    inp = tmp_path / "p.json"
    inp.write_text(json.dumps(doc))
    assert main(["check", str(inp), "--route", "klein", "--samples", "500"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("PASS")


def test_stored_check_lifts_the_points_as_the_build_did(tmp_path):
    """`check` of the stored diagram of the point set above, with two more
    points, reads the document's route and lifts the points as `voronoi`
    did (`hvd.oracle_hubs`): no numpy warning, under `python -W error`."""
    doc = {
        "dimension": 2, "model": "hemisphere", "scalar": "float64",
        "points": [[5e-324, 0.0, 0.9999999999999999], [0.8, 0.6, 0.0], [1.0, 0.0, 0.0]],
    }
    inp, out = tmp_path / "p.json", tmp_path / "d.json"
    inp.write_text(json.dumps(doc))
    for argv in (["compute", str(inp), "-o", str(out)], ["check", str(out), "--samples", "2000"]):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "hypervoronoi.cli", *argv], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.rstrip().endswith("PASS")


@pytest.mark.parametrize(
    "model, scalar, curvature, point",
    [
        ("hemisphere", "float64", -1.0, [1e200, 0.0, 0.0]),
        ("hyperboloid", "float64", -1.0, [1e200, 1e200, 0.0]),
        ("upper-half-space", "float64", -1.0, [1e300, 1e-300]),
        ("klein", "exact-rational", "-1/2", ["1" + "0" * 400 + "/1", "0/1"]),
    ],
    ids=["hemisphere", "hyperboloid", "upper", "non-square-curvature"],
)
@pytest.mark.parametrize("command", ["compute", "convert"])
def test_point_past_the_float_range_exit_3(tmp_path, capsys, command, model, scalar, curvature, point):
    other = {"hemisphere": [0.8, 0.6, 0.0], "hyperboloid": [1.25, 0.75, 0.0]}.get(model, ["1/5", "3/5"])
    doc = {"dimension": 2, "curvature": curvature, "model": model, "scalar": scalar, "points": [point, other]}
    inp = tmp_path / "p.json"
    inp.write_text(json.dumps(doc))
    extra = ["--to", "poincare"] if command == "convert" else []
    assert_domain_error(capsys, [command, str(inp), *extra, "-o", str(tmp_path / "o.json")])


@pytest.mark.parametrize("command", ["compute", "check", "delaunay"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_site_weight_past_the_float_range_exit_3(tmp_path, capsys, d, command):
    """A hemisphere point with x_0 = 1e-160 has a finite lift but a site
    weight |c|^2 - 1/x_0 that overflows float64: a typed error naming the
    site, not an IndexError from `locate` or nan halfspaces."""
    far = [1e-160] + [0.0] * (d - 1) + [1.0]
    pts = [far, [0.6, 0.8] + [0.0] * (d - 1)]
    inp = write_point_set(tmp_path / "p.json", pts, model="hemisphere", dim=d)
    extra = ["--samples", "100"] if command == "check" else ["-o", str(tmp_path / "o.json")]
    err = assert_domain_error(capsys, [command, str(inp), "--route", "hemisphere", *extra])
    assert err == "error: domain: site 0 is out of float range\n"


@pytest.mark.parametrize("value", ["x", None, [1.0], {"r": 1}, True])
@pytest.mark.parametrize("command", ["check", "render"])
def test_non_numeric_clip_radius_exit_2(tmp_path, capsys, command, value):
    _, dia = stored_fixture(tmp_path)
    doc = json.loads(dia.read_text())
    doc["clip"]["radius"] = value
    dia.write_text(dump_json(doc))
    extra = ["--samples", "100"] if command == "check" else ["-o", str(tmp_path / "o.svg")]
    assert_parse_error(capsys, [command, str(dia), *extra])


# --- output --------------------------------------------------------------------

def test_shorter_output_overwrites_a_longer_file_in_place(tmp_path):
    inp, dia = stored_fixture(tmp_path)
    out, link = tmp_path / "out.json", tmp_path / "link.json"
    out.write_bytes(b"x" * (dia.stat().st_size + 100_000))
    os.link(out, link)
    inode = out.stat().st_ino
    assert main(["compute", str(inp), "-o", str(out)]) == 0
    assert out.read_bytes() == dia.read_bytes()
    assert out.stat().st_ino == inode
    assert link.read_bytes() == dia.read_bytes()


def test_output_to_dev_null_exits_0(tmp_path, capsys):
    inp, _ = stored_fixture(tmp_path)
    assert main(["compute", str(inp), "-o", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_dash_and_no_output_write_stdout(tmp_path, capsys):
    inp, dia = stored_fixture(tmp_path)
    capsys.readouterr()
    assert main(["compute", str(inp), "-o", "-"]) == 0
    dash = capsys.readouterr().out
    assert main(["compute", str(inp)]) == 0
    assert dash == capsys.readouterr().out == dia.read_text()


@pytest.mark.parametrize(
    "raw, code",
    [('{"dimension": 2, "model": "klein", "points": [[0.5, 0.0], [0.1, 2.0]]}', 3), ("{not json", 2)],
    ids=["domain", "parse"],
)
def test_failed_compute_leaves_the_target_untouched(tmp_path, capsys, raw, code):
    inp = tmp_path / "p.json"
    inp.write_text(raw)
    out = tmp_path / "out.json"
    out.write_bytes(b"previous document")
    assert main(["compute", str(inp), "-o", str(out)]) == code
    assert out.read_bytes() == b"previous document"


def test_write_failing_partway_leaves_the_bytes_written(tmp_path, capsys, monkeypatch):
    inp, dia = stored_fixture(tmp_path)
    out = tmp_path / "out.json"
    out.write_bytes(b"x" * (2 * dia.stat().st_size))
    real_write = os.write
    calls = []

    def write_then_fail(fd, data):
        calls.append(fd)
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, data[:1000])

    monkeypatch.setattr(os, "write", write_then_fail)
    assert_parse_error(capsys, ["compute", str(inp), "-o", str(out)])
    assert out.read_bytes() == dia.read_bytes()[:1000]


@pytest.mark.parametrize("target", ["missing/dir/out", "directory"])
@pytest.mark.parametrize("command", ["compute", "convert", "delaunay", "render"])
def test_unwritable_output_exit_2(tmp_path, capsys, command, target):
    inp, dia = stored_fixture(tmp_path)
    output = tmp_path / target
    if target == "directory":
        output.mkdir()
    source = dia if command == "render" else inp
    extra = ["--to", "poincare"] if command == "convert" else []
    capsys.readouterr()
    assert main([command, str(source), *extra, "-o", str(output)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse: {output}: ")
    assert "\n" not in err.strip()


def test_one_parser_serves_every_call_as_a_fresh_one_would(tmp_path):
    inp, dia = stored_fixture(tmp_path)
    argvs = [
        ["compute", str(inp), "--exact", "--route", "hemisphere", "-o", "a.json"],
        ["convert", str(inp), "--to", "poincare"],
        ["compute", str(inp), "--verify", "10", "--model", "klein"],
        ["check", str(dia), "--samples", "5"],
        ["delaunay", str(inp), "--curvature", "-2"],
        ["render", str(dia), "--width", "7"],
        ["compute", str(inp)],
        ["check", str(inp), "--seed", "3"],
    ]
    assert _parser() is _parser()
    for argv in argvs + argvs[::-1]:
        assert vars(_parser().parse_args(argv)) == vars(build_parser().parse_args(argv))


def _file_writers(tree):
    """(function, truncates) of each call in `tree` that can open a file for
    writing: os.open, os.fdopen, Path.write_text/write_bytes, or any `open`
    whose mode is not a constant read mode.  A mode that is not a constant
    counts as truncating."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                on_os = isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "os"
                mode = child.args[1] if len(child.args) > 1 else next(
                    (k.value for k in child.keywords if k.arg == "mode"), None
                )
                text = str(mode.value) if isinstance(mode, ast.Constant) else "w"
                if on_os and name in ("open", "fdopen"):
                    found.append((function, "O_TRUNC" in ast.unparse(child)))
                elif name in ("write_text", "write_bytes"):
                    found.append((function, True))
                elif name == "open" and mode is not None and set("wax+") & set(text):
                    found.append((function, "w" in text))
            visit(child, inner)

    visit(tree, None)
    return found


def test_the_output_writer_is_the_only_code_that_opens_a_file_for_writing():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "hypervoronoi")
    writers = set()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                text = fh.read()
            assert "O_TRUNC" not in text, name
            writers |= {(name, fn, truncates) for fn, truncates in _file_writers(ast.parse(text))}
    assert writers == {("cli.py", "_write_output", False)}
