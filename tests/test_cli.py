import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from hypervoronoi import ModelPoint, ModelTag, convert, verify, voronoi
from hypervoronoi.cli import _check_stored_diagram, _print_report, main
from hypervoronoi.documents import (
    diagram_to_document,
    dump_json,
    load_diagram,
    parse_diagram,
    parse_point_set,
)
from hypervoronoi.sampling import (
    rational_hemisphere_points,
    random_klein_points,
    unbounded_star_points,
    wheel_points,
)


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
    stored.write_text(dump_json(diagram_to_document(dia)))
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


@pytest.mark.parametrize("value", ["x", None, [1.0], {"r": 1}, True])
@pytest.mark.parametrize("command", ["check", "render"])
def test_non_numeric_clip_radius_exit_2(tmp_path, capsys, command, value):
    _, dia = stored_fixture(tmp_path)
    doc = json.loads(dia.read_text())
    doc["clip"]["radius"] = value
    dia.write_text(dump_json(doc))
    extra = ["--samples", "100"] if command == "check" else ["-o", str(tmp_path / "o.svg")]
    assert_parse_error(capsys, [command, str(dia), *extra])
