"""Smoke tests: the example scripts and the README's library example run and report
what they promise."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_convergence_study_reaches_fourth_order():
    rows = [line.split() for line in run_script("convergence_study.py").strip().splitlines()[2:]]
    # columns: h, err(dnu,p), order, err(traction), order, err/tol
    for order in (float(rows[-1][2]), float(rows[-1][4])):
        assert abs(order - 4.0) <= 0.1
    # the error model bounds the true conversion error at every level
    assert all(float(row[5]) <= 1.0 for row in rows)


def test_circle_overlap_demo_agrees_to_roundoff():
    for args in ((), ("--curve", "ellipse")):
        out = run_script("circle_overlap_demo.py", *args)
        worst = float(re.search(r"worst overlap disagreement over \d+ pairs: (\S+)", out).group(1))
        assert worst <= 1e-12, args


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["converted"].dnu.c1.n == namespace["patch"].interior().n


def test_partition_sweep_slice_builds_only_valid_patches():
    # a slice of the sweep's grid: the script exits 1 if a setting is refused,
    # as ellipse:100,1's at max-slope 0.5 and 6 nodes were while the cover
    # sampled t uniformly, or if a patch of a built cover fails
    # validate(max_slope), as ellipse:100,1's far-off tip windows at max-slope
    # 0.5 and 1024 nodes did before their grids kept a raster that their |x1| allows
    curves = ("circle:1e-3", "ellipse:2,1", "ellipse:100,1", "graph:poly:0,0,5",
              "graph:poly:0,1,-2,3")
    out = run_script("partition_sweep.py", "--curves", *curves, "--overlaps", "0", "0.2",
                     "--repeat", "1").splitlines()
    assert len(out) == 5 * 3 * 2 * 5 + 1
    # a patch count and digest on every setting, no refusal
    covers = [re.fullmatch(r"(.*): (\d+) patches [0-9a-f]{64} \S+ s", line) for line in out[:-1]]
    assert all(covers), [line for line, cover in zip(out, covers) if not cover]
    built = {cover.group(1): int(cover.group(2)) for cover in covers}
    assert built["ellipse:100,1 max-slope 0.5 overlap 0 nodes 1024"] == 14
    assert built["ellipse:100,1 max-slope 0.5 overlap 0.2 nodes 1024"] == 20
    assert out[-1].endswith(" 0 settings refused, 0 patches fail validate")
    # the total line's digest is over each setting's line up to its time
    text = "".join(re.fullmatch(r"(.*) \S+ s", line).group(1) + "\n" for line in out[:-1])
    assert f", covers {hashlib.sha256(text.encode()).hexdigest()}, " in out[-1]
