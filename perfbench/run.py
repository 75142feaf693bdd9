#!/usr/bin/env python3
"""Benchmark of the cauchyflow CLI pipeline and of bulk library conversion.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (perfbench/README.md says why each exists):
    cli-small     generate on circle:1 at 64 nodes per patch (6 patches),
                  then both conversions and verify on one patch file, the
                  next one each job
    cli-large     partition ellipse:2,1 at 1024 nodes per patch, generate a
                  seeded cubic graph at 2^15 nodes, both conversions, verify
    library-bulk  graph_patch + evaluate_traces, stress_to_dn, dn_to_stress
                  on a seeded 2^20-node patch, inside this process

The CLI workloads run every command as a real `python -m cauchyflow`
process. Each workload is a closed loop with one client and one operation
at a time. A run is a fixed number of jobs, S divided by the workload's
nominal job time and rounded up, so that it measures about S seconds on
the machine the nominal times come from and the same work on every commit. With --trace 1
the jobs alternate between untraced and traced (perfbench/tracing.py) and
the per-layer metrics are reported instead of the end-to-end ones.

Times are reported in reference seconds: measured seconds scaled by how
fast a fixed probe ran during the run (see speed_probe); the human-readable
lines also give the measured values. Run from the root of a checkout: the
code under test is that checkout's src/, and the run fails if the package
resolves anywhere else. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Spans and run metadata are written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

SETUP_REPS = 3
OP_TIMEOUT_S = 120.0
#: speed_probe() time that defines a reference second (about the median on
#: the 2-vCPU Xeon VM this benchmark was written on)
REFERENCE_PROBE_S = 0.0055

SIZES = {
    "cli-small": {"nodes": 64},
    "cli-large": {"partition_nodes": 1024, "nodes": 2 ** 15},
    "library-bulk": {"nodes": 2 ** 20},
}
#: median job time in reference seconds at SIZES, on the seed code
NOMINAL_JOB_S = {"cli-small": 3.6, "cli-large": 7.8, "library-bulk": 2.3}

OP_KINDS = ("partition", "generate", "stress_to_dn", "dn_to_stress", "verify")
MODULES = ("cli", "geometry", "traces", "transform", "manufactured", "dataio")
EXIT_CODES = ("0", "1", "2", "3", "4", "5", "other")
QUANTITIES = checks.DN_QUANTITIES + checks.STRESS_QUANTITIES
#: units of the metrics reported in reference seconds (see speed_probe)
TIME_UNITS = ("s", "ns/node", "ns/B")

END_TO_END = (
    ("setup_s", "s"), ("job_s.p50", "s"), ("generate_s.p50", "s"),
    ("stress_to_dn_s.p50", "s"), ("dn_to_stress_s.p50", "s"),
    ("failed_frac", "ratio"), ("peak_rss_mb", "MB"),
)


def per_layer_units() -> list:
    m = [("import.total_s", "s"), ("import.scipy_s", "s"), ("geometry.import_s", "s"),
         ("cli.startup_s", "s")]
    for op in OP_KINDS:
        m += [(f"cli.{op}.process_s", "s"), (f"cli.{op}.cpu_s", "s"), (f"cli.{op}.main_s", "s")]
    part = "geometry.partition_curve"
    m += [(f"{part}.s", "s"), (f"{part}.calls", "count"), (f"{part}.nodes", "count"),
          (f"{part}.patches", "count"), (f"{part}.position_evals_per_node", "count/node"),
          (f"{part}.position_calls_per_node", "count/node"), ("geometry.graph_patch.s", "s")]
    m += [("transform.stress_to_dn.s", "s"), ("transform.stress_to_dn.calls", "count"),
          ("transform.stress_to_dn.ns_per_node", "ns/node"), ("transform.solve_system.s", "s"),
          ("transform.assemble_system.s", "s"), ("transform.assemble_system.calls", "count"),
          ("transform.determinant.s", "s"), ("transform.dn_to_stress.s", "s"),
          ("transform.dn_to_stress.ns_per_node", "ns/node"),
          ("traces.tangential_derivative.s", "s"), ("traces.tangential_derivative.calls", "count"),
          ("traces.tangential_derivative.ns_per_node", "ns/node"),
          ("manufactured.evaluate_traces.s", "s"),
          ("manufactured.evaluate_traces.ns_per_node", "ns/node")]
    for fn in ("write_dataset", "read_dataset", "write_patch_set"):
        m += [(f"dataio.{fn}.s", "s"), (f"dataio.{fn}.bytes", "B"), (f"dataio.{fn}.ns_per_byte", "ns/B")]
    m += [(f"{mod}.self_s", "s") for mod in MODULES]
    m += [(f"cli.exit.{code}.count", "count") for code in EXIT_CODES]
    m += [(f"check.max_err.{q}", "abs_err") for q in QUANTITIES]
    m += [("trace.overhead_frac", "ratio"), ("machine.speed_probe_ms", "ms")]
    return m


# ---------------------------------------------------------------- workloads

def catalog_pick(rng, keep=lambda triple: True):
    """A seeded catalog triple whose arrays all vary along a patch.

    Couette flow (u2 = 0 on an unrotated patch) and zero pressure write
    runs of "0" into the files, which makes I/O cost depend on the seed.
    """
    from cauchyflow import manufactured
    catalog = [t for t in manufactured.builtin_catalog()
               if t.flow.name != "couette" and t.pressure.name != "zero" and keep(t)]
    return catalog[rng.randrange(len(catalog))]


def generate_argv(triple, curve, nodes, out) -> list:
    return ["generate", "--flow", triple.flow.name, "--pressure", triple.pressure.name,
            "--viscosity", triple.viscosity.name, "--curve", curve, "--nodes", str(nodes),
            "--out", str(out)]


def patch_files(out: Path) -> list:
    """The files `generate --out out` wrote: out itself, or out-p00.json, ..."""
    numbered = sorted(out.parent.glob(f"{out.stem}-p[0-9][0-9]{out.suffix}"))
    return numbered or [out]


def convert_ops(path: Path):
    yield "stress_to_dn", ["convert", "stress-to-dn", "--in", str(path), "--out", str(converted(path, "dn"))]
    yield "dn_to_stress", ["convert", "dn-to-stress", "--in", str(path), "--out", str(converted(path, "st"))]
    yield "verify", ["verify", str(path)]


def converted(path: Path, tag: str) -> Path:
    return path.with_name(f"{path.stem}-{tag}{path.suffix}")


class CliWorkload:
    """Shared output check of the CLI workloads.

    `generate` must reproduce, byte for byte, the files of a reference run
    made before the timed loop; each converted array must match the oracle.
    """

    stem = "data"

    def reference(self, ref_dir: Path) -> None:
        from cauchyflow import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(generate_argv(self.triple, self.curve, self.nodes, ref_dir / f"{self.stem}.json"))
        if code != 0:
            raise checks.CheckFailed(f"reference generate exited {code}")
        self.expected = {}
        for path in patch_files(ref_dir / f"{self.stem}.json"):
            patch = checks.patch_from_doc(checks.load_doc(path))
            exact = checks.exact_traces(self.triple, patch)
            self.expected[path.name] = (path.read_bytes(), patch, exact, checks.error_bound(exact, patch))

    def check(self, d: Path, index: int) -> tuple[dict, float]:
        """Max error per quantity, and the worst error as a fraction of its bound."""
        errors, worst = defaultdict(float), 0.0
        files = patch_files(d / f"{self.stem}.json")
        if sorted(p.name for p in files) != sorted(self.expected):
            raise checks.CheckFailed("generate wrote other files than the reference run")
        for path in files:
            if path.read_bytes() != self.expected[path.name][0]:
                raise checks.CheckFailed(f"{path.name} differs from the reference run's bytes")
        for path in self.converted_patches(d, index):
            _, patch, exact, bound = self.expected[path.name]
            for tag, names in (("dn", checks.DN_QUANTITIES), ("st", checks.STRESS_QUANTITIES)):
                found = checks.check_converted_file(converted(path, tag), names, exact, patch, bound)
                for name, err in found.items():
                    errors[name] = max(errors[name], err)
                    worst = max(worst, err / bound)
        return errors, worst

    def describe(self) -> str:
        return f"triple {self.triple.name}, curve {self.curve}, {self.nodes} nodes per patch"


    def ops(self, d: Path, index: int):
        yield from self.first_ops(d)
        yield "generate", generate_argv(self.triple, self.curve, self.nodes, d / f"{self.stem}.json")
        for path in self.converted_patches(d, index):
            yield from convert_ops(path)

    def first_ops(self, d: Path):
        return ()


class CliSmall(CliWorkload):
    curve = "circle:1"

    def __init__(self, seed, sizes):
        rng = random.Random(seed)
        self.triple = catalog_pick(rng)
        self.offset = rng.randrange(64)
        self.nodes = sizes["nodes"]

    def converted_patches(self, d: Path, index: int) -> list:
        files = patch_files(d / f"{self.stem}.json")
        return [files[(self.offset + index) % len(files)]]


class CliLarge(CliWorkload):
    ellipse = (2.0, 1.0)
    max_slope = 1.0

    def __init__(self, seed, sizes):
        rng = random.Random(seed)
        self.triple = catalog_pick(rng)
        # cubic with |c1| + 2|c2| + 3|c3| < 0.9 bounds |gamma'| on [-1, 1],
        # so the partitioner emits one unrotated patch
        budget = rng.uniform(0.5, 0.85)
        w = [rng.uniform(0.2, 1.0) for _ in range(3)]
        coeffs = [rng.uniform(-0.5, 0.5)] + [rng.choice((-1.0, 1.0)) * budget * wk / sum(w) / k
                                              for k, wk in enumerate(w, start=1)]
        self.curve = "graph:poly:" + ",".join(repr(c) for c in coeffs)
        self.nodes = sizes["nodes"]
        self.partition_nodes = sizes["partition_nodes"]

    def first_ops(self, d: Path):
        a, b = self.ellipse
        yield "partition", ["partition", "--curve", f"ellipse:{a:g},{b:g}", "--nodes",
                            str(self.partition_nodes), "--out", str(d / "partition.json")]

    def converted_patches(self, d: Path, index: int) -> list:
        return [d / f"{self.stem}.json"]

    def check(self, d: Path, index: int) -> tuple[dict, float]:
        checks.check_ellipse_patches(checks.load_doc(d / "partition.json"), *self.ellipse,
                                     self.partition_nodes, self.max_slope)
        return super().check(d, index)


class LibraryBulk:
    def __init__(self, seed, sizes):
        from cauchyflow import geometry
        rng = random.Random(seed)
        # evaluate_traces costs up to 30% more for some flows; one flow and
        # viscosity, the ones that exercise every term, keep the generate op's
        # cost independent of the seed
        self.triple = catalog_pick(rng, lambda t: t.flow.name == "trig" and t.viscosity.name == "variable")
        self.amp = rng.uniform(0.05, 0.3)
        self.freq = rng.uniform(1.0, 2.9)
        self.phase = rng.uniform(0.0, 2.0 * math.pi)
        self.orientation = rng.choice(geometry.ORIENTATIONS)
        self.nodes = sizes["nodes"]

    def describe(self) -> str:
        return (f"triple {self.triple.name}, gamma = {self.amp:.4f} sin({self.freq:.4f} x1 + "
                f"{self.phase:.4f}), orientation {self.orientation}, {self.nodes} nodes")

    def generate(self):
        from cauchyflow import geometry, manufactured
        a, k, ph = self.amp, self.freq, self.phase
        patch = geometry.graph_patch(lambda x: a * np.sin(k * x + ph), lambda x: a * k * np.cos(k * x + ph),
                                     -1.0, 1.0, self.nodes, mu=self.triple.viscosity.value,
                                     orientation=self.orientation)
        dn, stress, _ = manufactured.evaluate_traces(self.triple.flow, self.triple.pressure,
                                                     self.triple.viscosity, patch)
        return patch, dn, stress, checks.trace_arrays(dn, stress)

    @staticmethod
    def digest(patch, exact) -> str:
        h = hashlib.sha256()
        for a in (patch.x1, patch.gamma, patch.gamma_prime, patch.mu, *exact.values()):
            h.update(a.tobytes())
        return h.hexdigest()

    def reference(self, ref_dir: Path) -> None:
        patch, _, _, exact = self.generate()
        self.expected = self.digest(patch, exact)


WORKLOADS = {"cli-small": CliSmall, "cli-large": CliLarge, "library-bulk": LibraryBulk}


# ---------------------------------------------------------------- running

def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter and memory work, best of 3.

    The machine's speed drifts by tens of percent from second to second
    and over minutes, and the drift moves every op alike, so the benchmark
    runs the probe just before every op (never during one) and reports the
    op in reference seconds: its measured seconds times REFERENCE_PROBE_S
    over that probe's time.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        a = np.ones(1 << 19)
        float((a * 2.0 + a).sum())
        best = min(best, time.perf_counter() - start)
    return best


class Run:
    """State of one benchmark run: op records, job records and spans."""

    def __init__(self, workload, env, work: Path):
        self.workload = workload
        self.work = work
        self.spawner = None
        if isinstance(workload, CliWorkload):
            self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=env, text=True,
                                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.tracer = tracing.Tracer(prefix="run")
        self.jobs: list[dict] = []
        self.processes: list[dict] = []
        self.probes: list[float] = []

    # -- CLI

    def close(self) -> None:
        if self.spawner is not None:
            self.spawner.stdin.close()
            self.spawner.wait(timeout=OP_TIMEOUT_S)

    def run_process(self, kind, argv, traced, spans_out: Path, job: int) -> dict:
        probe = speed_probe()
        self.probes.append(probe)
        if traced:
            cmd = [sys.executable, str(HERE / "probe.py"), str(spans_out), str(job), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "cauchyflow", *argv]
        self.spawner.stdin.write(json.dumps({"cmd": cmd, "stderr": str(self.work / "stderr.log"),
                                             "timeout": OP_TIMEOUT_S}) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        rec = {"kind": kind, "traced": traced, "job": job, "code": reply["code"], "probe_s": probe,
               "wall_s": reply["end"] - reply["spawn"], "cpu_s": reply["cpu_s"], "rss_mb": reply["rss_mb"]}
        self.processes.append(rec)
        if traced:
            span = self.tracer.add(f"op.{kind}", reply["spawn"], reply["end"])
            if spans_out.exists():
                recorded = json.loads(spans_out.read_text())
                rec["startup_s"] = recorded["main_start"] - reply["spawn"]
                for s in recorded["spans"]:
                    if s["parent"] is None:
                        s["parent"] = span["id"]
                        if s["name"] == "cli.main":
                            rec["main_s"] = s["end"] - s["start"]
                    self.tracer.spans.append(s)
                for key, value in recorded["counts"].get(str(job), {}).items():
                    self.tracer.counts[job][key] += value
        return rec

    def cli_job(self, index, traced) -> dict:
        d = self.work / f"job{index}"
        d.mkdir()
        ops = []

        def run_ops():
            for k, (kind, argv) in enumerate(self.workload.ops(d, index)):
                ops.append(self.run_process(kind, argv, traced, d / f"spans{k}.json", index))

        if traced:
            self.tracer.call("job", run_ops)
        else:
            run_ops()
        ok, errors, worst, message = True, {}, 0.0, ""
        try:
            errors, worst = self.workload.check(d, index)
        except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
            ok, message = False, f"{type(exc).__name__}: {exc}"
        shutil.rmtree(d)
        return {"traced": traced, "ops": ops, "ok": ok, "errors": errors, "bound_frac": worst,
                "message": message}

    # -- library

    def library_job(self, index, traced) -> dict:
        from cauchyflow import transform
        w = self.workload
        t = self.tracer
        ops = []

        def op(kind, fn, *args):
            probe = speed_probe()
            self.probes.append(probe)
            start = time.monotonic()
            try:
                out = t.call(f"op.{kind}", fn, *args) if traced else fn(*args)
            except Exception as exc:  # a raising op is a counted failure, not a crash
                ops.append({"kind": kind, "code": "raised", "probe_s": probe, "wall_s": time.monotonic() - start})
                raise checks.CheckFailed(f"{kind} raised {type(exc).__name__}: {exc}") from exc
            ops.append({"kind": kind, "code": 0, "probe_s": probe, "wall_s": time.monotonic() - start})
            return out

        def run_ops():
            patch, dn, stress, exact = op("generate", w.generate)
            dn_out = op("stress_to_dn", lambda: transform.stress_to_dn(stress, patch)[0])
            st_out = op("dn_to_stress", lambda: transform.dn_to_stress(dn, patch)[0])
            return patch, exact, dn_out, st_out

        ok, errors, worst, message = True, {}, 0.0, ""
        try:
            patch, exact, dn_out, st_out = t.call("job", run_ops) if traced else run_ops()
        except checks.CheckFailed as exc:
            ok, message = False, str(exc)
        if ok:
            try:
                if w.digest(patch, exact) != w.expected:
                    raise checks.CheckFailed("generate output differs from the reference run's bytes")
                got = {"dnu1": dn_out.dnu.c1.values, "dnu2": dn_out.dnu.c2.values, "p": dn_out.p.values,
                       "t1": st_out.traction.c1.values, "t2": st_out.traction.c2.values}
                bound = checks.error_bound(exact, patch)
                errors = checks.max_errors(got, exact, bound)
                worst = max(errors.values()) / bound
            except checks.CheckFailed as exc:
                ok, message = False, str(exc)
        return {"traced": traced, "ops": ops, "ok": ok, "errors": errors, "bound_frac": worst,
                "message": message}

    def loop(self, jobs: int, trace: bool) -> None:
        """Closed loop of `jobs` jobs, every other one traced when `trace` is set."""
        cli = isinstance(self.workload, CliWorkload)
        for index in range(jobs):
            traced = trace and index % 2 == 1
            self.tracer.job = index
            if traced and not cli:
                tracing.instrument(self.tracer)
            try:
                job = self.cli_job(index, traced) if cli else self.library_job(index, traced)
            finally:
                self.tracer.restore()
            self.jobs.append(job)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def fresh_import(env, importtime=False) -> str:
    """One new interpreter importing cauchyflow from src/; returns its stderr."""
    code = "import cauchyflow, sys; sys.stdout.write(cauchyflow.__file__)"
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", code]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"error: importing cauchyflow failed:\n{done.stderr[-2000:]}")
    require_pinned(done.stdout)
    return done.stderr


def require_pinned(module_file: str) -> None:
    where = Path(module_file).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: cauchyflow resolved to {where}, not to the checkout's {SRC}")


def run_metadata() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
    src_hash = hashlib.sha256()
    lines = {}
    for path in sorted((SRC / "cauchyflow").glob("*.py")):
        blob = path.read_bytes()
        src_hash.update(path.name.encode() + b"\0" + blob)
        lines[path.stem] = blob.count(b"\n")
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            **versions, "git_commit": commit, "src_sha256": src_hash.hexdigest(),
            "src_lines": lines, "src_lines_total": sum(lines.values())}


def median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def reference_s(wall_s: float, probe_s: float) -> float:
    return wall_s * REFERENCE_PROBE_S / probe_s


def job_seconds(job: dict, reference: bool = True) -> float:
    """Time of one job: the sum of its ops, in reference or measured seconds."""
    return sum(reference_s(o["wall_s"], o["probe_s"]) if reference else o["wall_s"] for o in job["ops"])


def end_to_end_metrics(run: Run, setups) -> tuple[dict, dict]:
    """{metric: (reported value, sample count, measured value)} and the op tally."""
    ops = [o for j in run.jobs for o in j["ops"]]
    attempted = len(ops)
    failed = sum(1 for o in ops if o["code"] != 0) + sum(1 for j in run.jobs if not j["ok"] and
                                                        all(o["code"] == 0 for o in j["ops"]))

    def timing(samples):
        return (median_or_zero([reference_s(w, p) for w, p in samples]), len(samples),
                median_or_zero([w for w, _ in samples]))

    by_kind = defaultdict(list)
    for o in ops:
        by_kind[o["kind"]].append((o["wall_s"], o["probe_s"]))
    peak = max(p["rss_mb"] for p in run.processes) if run.processes else own_peak_rss_mb()
    # rule of succession: (failed + 1) / (attempted + 2), never 0 on a clean run
    failed_frac = (failed + 1) / (attempted + 2)
    values = {
        "setup_s": timing(setups),
        "job_s.p50": (statistics.median(job_seconds(j) for j in run.jobs), len(run.jobs),
                      statistics.median(job_seconds(j, reference=False) for j in run.jobs)),
        "generate_s.p50": timing(by_kind["generate"]),
        "stress_to_dn_s.p50": timing(by_kind["stress_to_dn"]),
        "dn_to_stress_s.p50": timing(by_kind["dn_to_stress"]),
        "failed_frac": (failed_frac, attempted, failed_frac),
        "peak_rss_mb": (peak, len(run.processes) or len(run.jobs), peak),
    }
    return values, {"attempted": attempted, "failed": failed}


def own_peak_rss_mb() -> float:
    """Peak RSS of this process image (VmHWM); ru_maxrss would include its starter's."""
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer_metrics(run: Run, imports: list) -> dict:
    traced_jobs = [i for i, j in enumerate(run.jobs) if j["traced"]]
    plain_jobs = [j for j in run.jobs if not j["traced"]]
    rows = tracing.per_job(run.tracer.spans)
    counts = run.tracer.counts
    v: dict = {}

    def per_job_median(name, key):
        return median_or_zero([rows[i][name][key] if name in rows[i] else 0.0 for i in traced_jobs])

    def inclusive_ns_per(name, key):
        total = sum(rows[i][name]["total_s"] for i in traced_jobs if name in rows[i])
        size = sum(rows[i][name][key] for i in traced_jobs if name in rows[i])
        return 1e9 * total / size if size else 0.0

    v["import.total_s"] = median_or_zero([r["total"] for r in imports])
    v["import.scipy_s"] = median_or_zero([r["scipy"] for r in imports])
    v["geometry.import_s"] = median_or_zero([r["geometry"] for r in imports])
    traced_procs = [p for p in run.processes if p["traced"] and "startup_s" in p]
    v["cli.startup_s"] = median_or_zero([p["startup_s"] for p in traced_procs])
    for op in OP_KINDS:
        plain = [p for p in run.processes if not p["traced"] and p["kind"] == op]
        v[f"cli.{op}.process_s"] = median_or_zero([p["wall_s"] for p in plain])
        v[f"cli.{op}.cpu_s"] = median_or_zero([p["cpu_s"] for p in plain])
        v[f"cli.{op}.main_s"] = median_or_zero([p["main_s"] for p in traced_procs
                                                 if p["kind"] == op and "main_s" in p])

    part = "geometry.partition_curve"
    v[f"{part}.s"] = per_job_median(part, "s")
    v[f"{part}.calls"] = per_job_median(part, "calls")
    v[f"{part}.nodes"] = per_job_median(part, "nodes")
    v[f"{part}.patches"] = per_job_median(part, "patches")
    nodes = sum(rows[i][part]["nodes"] for i in traced_jobs if part in rows[i])
    for key in ("evals", "calls"):
        n = sum(counts[i][f"curve.position.{key}"] for i in traced_jobs)
        v[f"{part}.position_{key}_per_node"] = n / nodes if nodes else 0.0
    v["geometry.graph_patch.s"] = per_job_median("geometry.graph_patch", "s")
    for name in ("transform.stress_to_dn", "transform.solve_system", "transform.assemble_system",
                 "transform.determinant", "transform.dn_to_stress", "traces.tangential_derivative",
                 "manufactured.evaluate_traces"):
        v[f"{name}.s"] = per_job_median(name, "s")
    for name in ("transform.stress_to_dn", "transform.assemble_system", "traces.tangential_derivative"):
        v[f"{name}.calls"] = per_job_median(name, "calls")
    for name in ("transform.stress_to_dn", "transform.dn_to_stress", "traces.tangential_derivative",
                 "manufactured.evaluate_traces"):
        v[f"{name}.ns_per_node"] = inclusive_ns_per(name, "nodes")
    for fn in ("write_dataset", "read_dataset", "write_patch_set"):
        name = f"dataio.{fn}"
        v[f"{name}.s"] = per_job_median(name, "s")
        v[f"{name}.bytes"] = per_job_median(name, "bytes")
        v[f"{name}.ns_per_byte"] = inclusive_ns_per(name, "bytes")
    for mod in MODULES:
        v[f"{mod}.self_s"] = median_or_zero([
            sum(r["s"] for name, r in rows[i].items() if name.split(".")[0] == mod) for i in traced_jobs])
    codes = defaultdict(int)
    for p in run.processes:
        codes[str(p["code"]) if str(p["code"]) in EXIT_CODES else "other"] += 1
    for code in EXIT_CODES:
        v[f"cli.exit.{code}.count"] = codes[code] / len(run.jobs)
    for q in QUANTITIES:
        v[f"check.max_err.{q}"] = max((j["errors"].get(q, 0.0) for j in run.jobs), default=0.0)
    traced_s = [job_seconds(run.jobs[i]) for i in traced_jobs]
    plain_s = [job_seconds(j) for j in plain_jobs]
    v["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    v["machine.speed_probe_ms"] = 1e3 * statistics.median(run.probes)
    return v


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), SIZES[args.workload])
    print(json.dumps(result))
    return 0


def run_benchmark(name, seed, seconds, trace, sizes) -> dict:
    if not (SRC / "cauchyflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no cauchyflow package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import cauchyflow  # the harness itself needs the oracle and the catalog
    require_pinned(cauchyflow.__file__)
    env = child_env()
    setups = []
    for _ in range(SETUP_REPS):
        probe = speed_probe()
        start = time.monotonic()
        fresh_import(env)
        workload = WORKLOADS[name](seed, sizes)
        setups.append((time.monotonic() - start, probe))
    imports = []
    if trace:
        imports = [tracing.parse_importtime(fresh_import(env, importtime=True)) for _ in range(SETUP_REPS)]

    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        ref = work / "reference"
        ref.mkdir()
        workload.reference(ref)
        run = Run(workload, env, work)
        try:
            run.loop(max(2 if trace else 1, math.ceil(seconds / NOMINAL_JOB_S[name])), trace)
        finally:
            run.close()
        log = work / "stderr.log"
        stderr_tail = log.read_text(errors="replace").splitlines()[-5:] if log.exists() else []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = run_metadata() | {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                             "inputs": workload.describe(), "sizes": sizes}
    e2e, tally = end_to_end_metrics(run, setups)
    correct = all(j["ok"] for j in run.jobs)
    print(f"meta {json.dumps(meta)}")
    print(f"{name} seed {seed}: {workload.describe()}")
    print(f"{len(run.jobs)} jobs, {tally['attempted']} ops, {tally['failed']} failed, "
          f"output check {'passed' if correct else 'FAILED'}, worst error "
          f"{max(j['bound_frac'] for j in run.jobs):.3g} of its truncation-plus-roundoff bound")
    for j in run.jobs:
        if not j["ok"]:
            print(f"  check failed: {j['message']}")
    codes = defaultdict(int)
    for o in (o for j in run.jobs for o in j["ops"]):
        codes[str(o["code"])] += 1
    print("exit codes: " + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items())))
    if stderr_tail:
        print("standard error of the CLI processes ends with:")
        for line in stderr_tail:
            print(f"  {line}")
    speed = REFERENCE_PROBE_S / statistics.median(run.probes)
    print(f"speed probe median {1e3 * statistics.median(run.probes):.3f} ms over {len(run.probes)} probes; "
          f"times below are in reference seconds")
    metrics = {}
    if trace:
        values = per_layer_metrics(run, imports)
        print(f"traced jobs {sum(j['traced'] for j in run.jobs)}, untraced {sum(not j['traced'] for j in run.jobs)}")
        print_self_time(run)
        for key, unit in per_layer_units():
            value = values[key] * speed if unit in TIME_UNITS else values[key]
            metrics[key] = {"value": value, "unit": unit}
            print(f"  {key:<52} {value:>14.6g} {unit}")
    else:
        for key, unit in END_TO_END:
            value, n, measured = e2e[key]
            metrics[key] = {"value": value, "unit": unit}
            print(f"  {key:<22} {value:>12.6g} {unit:<6} (n={n}, measured {measured:.6g})")
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
        "meta": meta, "metrics": metrics, "jobs": run.jobs, "probes": run.probes, "processes": run.processes,
        "spans": run.tracer.spans, "counts": {str(k): dict(c) for k, c in run.tracer.counts.items()}}))
    return {"correct": correct, "attempted": tally["attempted"], "failed": tally["failed"], "metrics": metrics}


def print_self_time(run: Run) -> None:
    rows = tracing.per_job(run.tracer.spans)
    by_module = defaultdict(float)
    for job in rows.values():
        for name, r in job.items():
            by_module[name.split(".")[0]] += r["s"]
    jobs = len(rows) or 1
    print("self time per traced job by module: " + ", ".join(
        f"{mod} {s / jobs:.4f} s" for mod, s in sorted(by_module.items(), key=lambda kv: -kv[1])))


if __name__ == "__main__":
    sys.exit(main())
