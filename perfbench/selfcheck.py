#!/usr/bin/env python3
"""Self-check of the benchmark at a tiny size.

Usage: python3 perfbench/selfcheck.py

Runs each workload for one short job at tiny sizes, with tracing off and
on, and confirms that every metric BENCHMARK.json names is emitted with its
unit and that the output check passes. Then it confirms that the output
check fires on deliberately corrupted outputs: one converted value moved
past the error bound, a sign-flipped traction array, and a generate output
that differs by one byte from the reference. Exits 0 when all of this holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run

TINY = {
    "cli-small": {"nodes": 16},
    "cli-large": {"partition_nodes": 64, "nodes": 256},
    "library-bulk": {"nodes": 4096},
}


def expect_failure(what, fn) -> None:
    try:
        fn()
    except checks.CheckFailed:
        print(f"ok   output check fires on {what}")
        return
    raise SystemExit(f"FAIL output check did not fire on {what}")


def check_metrics(spec) -> None:
    for name in sorted(run.WORKLOADS):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.run_benchmark(name, 1, 0.1, trace, TINY[name])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                raise SystemExit(f"FAIL {name} trace {int(trace)}: metrics differ from BENCHMARK.json: "
                                 f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            if not result["correct"] or result["attempted"] < 1:
                raise SystemExit(f"FAIL {name} trace {int(trace)}: output check failed on the program's outputs")
            print(f"ok   {name} trace {int(trace)}: {len(got)} metrics, {result['attempted']} ops checked")


def check_corruption(work: Path) -> None:
    from cauchyflow import cli, transform

    w = run.LibraryBulk(3, TINY["library-bulk"])
    patch, dn, stress, exact = w.generate()
    got = {"dnu1": transform.stress_to_dn(stress, patch)[0].dnu.c1.values.copy()}
    bound = checks.error_bound(exact, patch)
    checks.max_errors(got, exact, bound)
    got["dnu1"][len(got["dnu1"]) // 2] += 10.0 * bound
    expect_failure("a converted value moved by ten times the bound", lambda: checks.max_errors(got, exact, bound))

    w = run.CliSmall(3, TINY["cli-small"])
    ref, d = work / "ref", work / "job"
    ref.mkdir()
    d.mkdir()
    w.reference(ref)
    with contextlib.redirect_stdout(io.StringIO()):
        for _, argv in w.ops(d, 0):
            cli.main(argv)
    w.check(d, 0)
    target = run.converted(w.converted_patches(d, 0)[0], "st")
    doc = json.loads(target.read_text())
    doc["t2"] = [-v for v in doc["t2"]]
    target.write_text(json.dumps(doc))
    expect_failure("a sign-flipped traction array", lambda: w.check(d, 0))

    with contextlib.redirect_stdout(io.StringIO()):
        for _, argv in w.ops(d, 0):
            cli.main(argv)
    w.check(d, 0)
    first = run.patch_files(d / f"{w.stem}.json")[0]
    first.write_bytes(first.read_bytes().replace(b'"format_version": 1', b'"format_version":  1'))
    expect_failure("a generate output one byte off the reference", lambda: w.check(d, 0))


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    run.WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.WORK))
    try:
        check_corruption(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    try:
        run.require_pinned("/elsewhere/cauchyflow/__init__.py")
    except SystemExit:
        print("ok   a package outside the checkout's src/ is refused")
    else:
        raise SystemExit("FAIL a package outside src/ was accepted")
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
