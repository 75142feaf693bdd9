"""Spans and counters recorded around cauchyflow's public functions.

A Tracer replaces a module attribute with a wrapper that records a span
(id, name, start, end, parent span, job id) plus the size of the work the
call received. Callers that look the attribute up through the module at
call time, as cli.py and transform.py do, then go through the wrapper, so
the program itself is not edited. Spans stay in memory until the caller
writes them out. Times are CLOCK_MONOTONIC (time.monotonic on Linux),
which is shared by every process on the machine, so a child's span can be
compared with the instant its parent spawned it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self, prefix: str = "s"):
        self.prefix = prefix
        self.job = 0
        self.spans: list[dict] = []
        # counts[job][key]: work counted at a boundary, e.g. curve evaluations
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self._stack: list[str] = []
        self._saved: list = []

    def add(self, name, start, end, **extra) -> dict:
        """Record a span whose interval was measured elsewhere, under the open span."""
        span = {"id": f"{self.prefix}:{len(self.spans)}", "name": name, "job": self.job,
                "parent": self._stack[-1] if self._stack else None,
                "start": start, "end": end, **extra}
        self.spans.append(span)
        return span

    def call(self, name, fn, *args, size=None, **kwargs):
        span = self.add(name, time.monotonic(), None)
        self._stack.append(span["id"])
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.monotonic()
            self._stack.pop()
        if size is not None:
            span.update(size(args, kwargs, result))
        return result

    def wrap(self, module, attr, name, size=None):
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, size=size, **kwargs)

        self._saved.append((module, attr, fn))
        setattr(module, attr, traced)

    def counting(self, key, fn):
        """Wrap a vectorized callable of t, counting calls and evaluated points."""
        def counted(t):
            job = self.counts[self.job]
            job[key + ".calls"] += 1
            job[key + ".evals"] += int(np.size(t))
            return fn(t)
        return counted

    def restore(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(args, kwargs, result):
    return {"bytes": Path(_arg(args, kwargs, 0, "path")).stat().st_size}


def instrument(tracer: Tracer) -> None:
    """Wrap every public function a benchmark workload reaches.

    Each wrapper patches the attribute its caller looks up: transform's own
    `tangential_derivative`, `solve_system` and `assemble_system` globals,
    and the geometry/manufactured/dataio/transform attributes cli.py reads.
    The builtin curve constructors return curves whose position and velocity
    callables count their calls and evaluated points.
    """
    from cauchyflow import dataio, geometry, manufactured, transform

    def patch_nodes(index, name):
        return lambda a, k, r: {"nodes": _arg(a, k, index, name).n}

    tracer.wrap(geometry, "partition_curve", "geometry.partition_curve",
                lambda a, k, r: {"nodes": sum(p.n for p in r), "patches": len(r)})
    tracer.wrap(geometry, "graph_patch", "geometry.graph_patch", lambda a, k, r: {"nodes": r.n})
    tracer.wrap(manufactured, "evaluate_traces", "manufactured.evaluate_traces",
                patch_nodes(3, "patch"))
    tracer.wrap(transform, "stress_to_dn", "transform.stress_to_dn", patch_nodes(1, "patch"))
    tracer.wrap(transform, "dn_to_stress", "transform.dn_to_stress", patch_nodes(1, "patch"))
    tracer.wrap(transform, "solve_system", "transform.solve_system",
                lambda a, k, r: {"nodes": r.shape[0]})
    tracer.wrap(transform, "assemble_system", "transform.assemble_system",
                lambda a, k, r: {"nodes": r.shape[0]})
    tracer.wrap(transform, "determinant", "transform.determinant",
                lambda a, k, r: {"nodes": int(np.size(r))})
    tracer.wrap(transform, "tangential_derivative", "traces.tangential_derivative",
                lambda a, k, r: {"nodes": _arg(a, k, 0, "trace").n})
    for attr in ("write_dataset", "read_dataset", "write_patch_set"):
        tracer.wrap(dataio, attr, f"dataio.{attr}", _file_bytes)

    for attr in ("circle", "ellipse", "polynomial_graph"):
        make = getattr(geometry, attr)

        def counted_curve(*args, _make=make, **kwargs):
            curve = _make(*args, **kwargs)
            return geometry.ParametricCurve(
                tracer.counting("curve.position", curve.position),
                tracer.counting("curve.velocity", curve.velocity), curve.kind)

        tracer._saved.append((geometry, attr, make))
        setattr(geometry, attr, counted_curve)


def self_times(spans) -> dict:
    """Self time of each span: its duration minus its direct children's."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def per_job(spans) -> dict:
    """{job: {span name: {"s": self time, "calls", "total_s", "nodes", "bytes", "patches"}}}."""
    own = self_times(spans)
    jobs: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for s in spans:
        row = jobs[s["job"]][s["name"]]
        row["s"] += own[s["id"]]
        row["total_s"] += s["end"] - s["start"]
        row["calls"] += 1
        for key in ("nodes", "bytes", "patches"):
            row[key] += s.get(key, 0)
    return jobs


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds from `python -X importtime` output.

    Returns the package's total, its geometry module, and scipy: the sum
    over scipy modules whose importer is not itself a scipy module.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative) * 1e-6, name.strip()))
    # importtime prints children before parents; walking backwards visits
    # each parent first, so a stack of open ancestors yields every importer
    stack: list = []
    found = {"total": 0.0, "geometry": 0.0, "scipy": 0.0}
    for depth, seconds, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        stack.append((depth, name))
        if name == "cauchyflow":
            found["total"] = seconds
        elif name == "cauchyflow.geometry":
            found["geometry"] = seconds
        elif name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            found["scipy"] += seconds
    return found
