"""Smoke tests: the example scripts and the README's library example run and report
what they promise."""

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
