"""Workloads of the hypervoronoi benchmark: inputs made from the seed, the
operations that use them, and the check of every output.

A workload is a cycle of rounds.  A round runs one operation of each of
the workload's kinds, back to back: a closed loop with one client, where
each operation starts only after the previous one has finished.  Commands
run in-process through `hypervoronoi.cli.main`, so interpreter start-up is
not timed.  Rounds of one cycle use different inputs; cycles repeat them.

* build  - CLI `compute` (Klein route, float64), alternating d=2, n=200 and
           d=3, n=50.  Covers the site map, radical hyperplanes, clipping,
           vertex merge, surface transport, Delaunay, the degeneracy scan
           and encoding; draws no samples.  The collinear scan is planar
           only, so a fix to it moves compute_d2_s and not compute_d3_s.
* verify - one small diagram (d=2, n=60) stored during set-up; CLI `check`
           on the stored document, CLI `check` on the point set, and the
           library chain voronoi -> delaunay -> verify, 10 000 samples each.
           Sampling, labelling, the oracle and decoding do most of the work.
* exact  - CLI `compute --route hemisphere` on exact-rational hemisphere
           documents (d=2, n=50): `Fraction` arithmetic through the same
           power, clipping and documents layers as build.  Repeats of an
           input must give byte-identical documents.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import shutil
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

PACKAGE = "hypervoronoi"

SIZES = {
    "full": {"d2": 200, "d3": 50, "verify": 60, "exact": 50, "samples": 10_000},
    "toy": {"d2": 24, "d3": 10, "verify": 12, "exact": 8, "samples": 500},
}
# Rounds per cycle: the number of distinct inputs (or sample seeds) a run uses.
CYCLE = {"build": 2, "verify": 2, "exact": 4}
WARMUP_N = 8
WARMUP_SAMPLES = 200
# Samples the benchmark draws to check each output document.
CHECK_SAMPLES = 2000


@dataclass
class Outcome:
    exit_code: int
    stdout: str
    stderr: str
    document: Path | None = None
    report: object = None


@dataclass
class Op:
    kind: str
    key: str  # identifies the input, so that repeats can be compared
    run: Callable[[], Outcome]


@dataclass
class Prepared:
    rounds: list  # one list of Op per round of the cycle
    stored: Path | None  # the stored diagram of `verify`, checked once


def import_package():
    """Import the package afresh, so that each set-up pays for its import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return tuple(
        importlib.import_module(name)
        for name in (PACKAGE, PACKAGE + ".cli", PACKAGE + ".sampling")
    )


def _encode(x, exact: bool):
    if exact:
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}"
    return float(x)


def write_point_set(path: Path, points, model: str, exact: bool) -> Path:
    doc = {
        "dimension": len(points[0]) - (1 if model == "hemisphere" else 0),
        "curvature": _encode(-1, exact),
        "model": model,
        "scalar": "exact-rational" if exact else "float64",
        "points": [[_encode(c, exact) for c in p] for p in points],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _cli(cli, argv: list, document: Path | None = None) -> Callable[[], Outcome]:
    def run() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse rejected the arguments
                code = e.code if isinstance(e.code, int) else 2
        return Outcome(code, out.getvalue(), err.getvalue(), document)

    return run


def _compute(cli, source: Path, output: Path, *extra) -> Callable[[], Outcome]:
    return _cli(cli, ["compute", str(source), "-o", str(output), *extra], output)


def _check(cli, source: Path, samples: int, seed: int) -> Callable[[], Outcome]:
    return _cli(cli, ["check", str(source), "--samples", str(samples), "--seed", str(seed)])


def _pipeline(hv, points, samples: int, seed: int) -> Callable[[], Outcome]:
    def run() -> Outcome:
        dia = hv.voronoi(points)
        hv.delaunay(dia)
        report = hv.verify(dia, samples, seed)
        return Outcome(0, "", "", None, report)

    return run


def _klein_model_points(hv, points):
    return [hv.ModelPoint(hv.ModelTag.KLEIN, p) for p in points]


def prepare(workload: str, seed: int, size: str, work: Path) -> Prepared:
    """Set up a workload from nothing: import, inputs, documents, warm-up."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    hv, cli, sampling = import_package()
    n = SIZES[size]
    cycle = CYCLE[workload]
    input_seed = [seed * 1000 + k for k in range(cycle)]
    stored = None
    warm = work / "warm.json"

    def klein(name, count, d, s):
        points = sampling.random_klein_points(count, d, s)
        return points, write_point_set(work / name, points, "klein", False)

    if workload == "build":
        warmups = [_compute(cli, klein(f"w{d}.json", WARMUP_N, d, seed)[1], warm) for d in (2, 3)]
        rounds = [
            [
                Op(f"compute_d{d}", f"d{d}-{k}",
                   _compute(cli, klein(f"d{d}-{k}.json", n[f"d{d}"], d, s)[1], work / f"d{d}-out.json"))
                for d in (2, 3)
            ]
            for k, s in enumerate(input_seed)
        ]
    elif workload == "verify":
        small_points, small = klein("w.json", WARMUP_N, 2, seed)
        warmups = [
            _compute(cli, small, warm),
            _check(cli, warm, WARMUP_SAMPLES, seed),
            _check(cli, small, WARMUP_SAMPLES, seed),
            _pipeline(hv, _klein_model_points(hv, small_points), WARMUP_SAMPLES, seed),
        ]
        points, source = klein("points.json", n["verify"], 2, input_seed[0])
        stored = work / "stored.json"
        code = cli.main(["compute", str(source), "-o", str(stored)])
        if code != 0:
            raise RuntimeError(f"set-up compute of the stored diagram exited {code}")
        model_points = _klein_model_points(hv, points)
        rounds = [
            [
                Op("check_stored", f"stored-{k}", _check(cli, stored, n["samples"], s)),
                Op("check_points", f"points-{k}", _check(cli, source, n["samples"], s)),
                Op("pipeline", f"pipeline-{k}", _pipeline(hv, model_points, n["samples"], s)),
            ]
            for k, s in enumerate(input_seed)
        ]
    elif workload == "exact":
        def exact(name, count, s):
            points = sampling.rational_hemisphere_points(count, 2, s)
            return write_point_set(work / name, points, "hemisphere", True)

        route = ("--route", "hemisphere")
        warmups = [_compute(cli, exact("w.json", WARMUP_N, seed), warm, *route)]
        rounds = [
            [Op("compute_exact", f"exact-{k}",
                _compute(cli, exact(f"exact-{k}.json", n["exact"], s), work / f"exact-{k}-out.json", *route))]
            for k, s in enumerate(input_seed)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")

    for run in warmups:
        run()
    return Prepared(rounds, stored)


class OutputCheck:
    """Checks each outcome; remembers exact documents' digests per input."""

    def __init__(self, seed: int, samples: int):
        self.rng = np.random.default_rng([seed, 0x5EED])
        self.samples = samples
        self.digests: dict[str, str] = {}

    def document(self, path: Path) -> str | None:
        doc = json.loads(path.read_bytes())
        samples = oracle.ball_samples(self.rng, CHECK_SAMPLES, int(doc["input"]["dimension"]))
        return oracle.check_document(doc, samples)

    def __call__(self, op: Op, outcome: Outcome) -> str | None:
        if op.kind.startswith("compute"):
            if outcome.exit_code != 0:
                return f"compute exited {outcome.exit_code}: {outcome.stderr.strip()}"
            if op.kind == "compute_exact":
                digest = hashlib.sha256(outcome.document.read_bytes()).hexdigest()
                if self.digests.setdefault(op.key, digest) != digest:
                    return "repeat is not byte-identical"
            return self.document(outcome.document)
        if op.kind == "pipeline":
            report = outcome.report
            if not report.ok or report.sample_count != self.samples:
                return f"verify: ok={report.ok}, samples={report.sample_count}"
            return None
        return oracle.check_verdict(outcome.exit_code, outcome.stdout, self.samples)
