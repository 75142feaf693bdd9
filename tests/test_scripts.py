"""Smoke tests: the example scripts run and report what they promise."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name):
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_convergence_study_reaches_fourth_order():
    last_row = run_script("convergence_study.py").strip().splitlines()[-1].split()
    # columns: h, err(dnu,p), order, err(traction), order
    for order in (float(last_row[2]), float(last_row[4])):
        assert abs(order - 4.0) <= 0.1


def test_circle_overlap_demo_agrees_to_roundoff():
    out = run_script("circle_overlap_demo.py")
    worst = float(re.search(r"worst overlap disagreement over \d+ pairs: (\S+)", out).group(1))
    assert worst <= 1e-12
