"""Span tracer for the benchmark's traced run.

The program is traced from outside: every attribute of a package module
that is bound to a traced function is replaced by one wrapper, so copies
imported by name (`hvd.build_complex`, `cli.verify`, ...) are traced too.
A wrapper records a span - name, start, end, parent span and operation id -
into flat in-memory arrays, which are written out once, when the run ends.
A traced name the package no longer has is recorded as absent, and so is
`name()` when a result no longer has the shape a count is read from.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np


def _count_report(counts, report):
    counts["verify.samples"] += report.sample_count
    counts["verify.excluded"] += report.excluded


# Counts read from a traced function's result, keyed by the function.
OBSERVERS = {
    "hvd.voronoi": lambda counts, dia: counts.update(
        {"hvd.adjacency_pairs": len(dia.complex.adjacency)}
    ),
    "hvd.delaunay": lambda counts, dual: counts.update(
        {"hvd.delaunay_edges": len(dual.edges)}
    ),
    "hvd.verify": _count_report,
    "cli._check_stored_diagram": _count_report,
    "sampling.ball_points": lambda counts, samples: counts.update(
        {"sampling.ball_points.samples": len(samples)}
    ),
}


class _CountingJson:
    """Stands in for the `json` module inside the package; counts parses."""

    def __init__(self, counts):
        self._counts = counts

    def __getattr__(self, name):
        return getattr(json, name)

    def load(self, *args, **kwargs):
        self._counts["documents.json_parses"] += 1
        return json.load(*args, **kwargs)

    def loads(self, *args, **kwargs):
        self._counts["documents.json_parses"] += 1
        return json.loads(*args, **kwargs)


class Tracer:
    def __init__(self, package: str, span_groups: dict):
        self.package = package
        self.span_groups = span_groups
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.op_id = -1
        self.ops = 0
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._patches: list[tuple] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, qual: str, group: str):
        nid = self._intern(group)
        observe = OBSERVERS.get(qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                try:
                    observe(self.counts, result)
                except (AttributeError, TypeError):
                    if f"{qual}()" not in self.absent:
                        self.absent.append(f"{qual}()")
            return result

        return traced

    def _modules(self) -> list:
        prefix = self.package + "."
        return [
            m
            for name, m in sorted(sys.modules.items())
            if name == self.package or name.startswith(prefix)
        ]

    @contextlib.contextmanager
    def installed(self):
        """Trace the package while the block runs; restore it afterwards."""
        modules = self._modules()
        self.absent = []
        try:
            for group, qualnames in self.span_groups.items():
                for qual in qualnames:
                    module_name, attr = qual.rsplit(".", 1)
                    module = sys.modules.get(f"{self.package}.{module_name}")
                    fn = getattr(module, attr, None)
                    if not callable(fn):
                        self.absent.append(qual)
                        continue
                    wrapper = self._wrap(fn, qual, group)
                    self._rebind(modules, fn, wrapper)
            self._rebind(modules, json, _CountingJson(self.counts))
            yield self
        finally:
            for module, attr, original in reversed(self._patches):
                setattr(module, attr, original)
            self._patches = []

    def _rebind(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    @contextlib.contextmanager
    def operation(self, kind: str):
        """One benchmark operation: a root span that groups its children."""
        self.op_id += 1
        self.ops += 1
        idx = self._open(self._intern(f"op.{kind}"))
        try:
            yield
        finally:
            self._close(idx)

    def span_totals(self) -> dict:
        """{span name: (calls, self seconds)} over every recorded span."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(nid, minlength=len(self.names))
        seconds = np.bincount(nid, weights=self_time, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(seconds[i])) for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
