#!/usr/bin/env python3
"""Partition a grid of curves and settings, and fingerprint every cover.

Each setting (curve, max-slope, overlap, nodes per patch) is one
`partition_curve` call. A line per setting gives the patch count, or the
refusal's message, a sha256 over every patch's frame angle, orientation
and arrays (x1, gamma, gamma', mu), and the best time of --repeat calls.
Two checkouts that build the same covers print the same counts and
digests, so comparing the outputs shows which partitions a change moved.
The last line totals the times, names the slowest setting, gives one
sha256 over every setting's line up to its time (so two checkouts build
the same covers when their "covers" digests match) and counts the
refusals and the patches that fail `validate(max_slope)`. Exits 1 if a
setting is refused or a patch of a built cover fails `validate(max_slope)`.

Usage: python scripts/partition_sweep.py [--curves SPEC ...] [--overlaps F ...] [--repeat 3]
"""

import argparse
import hashlib
import itertools
import sys
import time

import numpy as np

from cauchyflow import partition_curve
from cauchyflow.cli import parse_curve_spec

CURVES = ("circle:1", "circle:1e-3", "circle:30",
          "ellipse:2,1", "ellipse:1,7", "ellipse:3,1", "ellipse:5,1", "ellipse:10,1",
          "ellipse:100,1",
          "graph:poly:0,0.2", "graph:poly:0.1,0.3,-0.2,0.25", "graph:poly:0,3",
          "graph:poly:0,0,5", "graph:poly:0,1,-2,3")
SLOPES = (0.5, 1.0, 3.0)
OVERLAPS = (0.0, 0.2, 0.45)
NODES = (6, 8, 16, 64, 1024)


def fingerprint(patches) -> str:
    """sha256 of each patch's frame angle, orientation and arrays, in cover order."""
    digest = hashlib.sha256()
    for p in patches:
        digest.update(np.float64(p.frame_angle).tobytes())
        digest.update(p.orientation.encode())
        for a in (p.x1, p.gamma, p.gamma_prime, p.mu):
            digest.update(a.tobytes())
    return digest.hexdigest()


def run_setting(curve, max_slope, overlap, nodes, repeat):
    """(cover line, best time in s, patches failing validate) for one setting."""
    best, outcome = np.inf, None
    for _ in range(repeat):
        start = time.perf_counter()
        try:
            outcome = partition_curve(curve, max_slope=max_slope, overlap_fraction=overlap,
                                      nodes_per_patch=nodes)
        except ValueError as exc:
            outcome = exc
        best = min(best, time.perf_counter() - start)
    if isinstance(outcome, ValueError):
        return f"refused: {outcome}", best, 0
    bad = 0
    for p in outcome:
        try:
            p.validate(max_slope)
        except ValueError:
            bad += 1
    return f"{len(outcome)} patches {fingerprint(outcome)}", best, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--curves", nargs="+", default=CURVES, metavar="SPEC")
    parser.add_argument("--overlaps", nargs="+", type=float, default=OVERLAPS, metavar="F")
    parser.add_argument("--repeat", type=int, default=3, help="calls per setting (best time)")
    args = parser.parse_args(argv)

    total, slowest, refused, failing = 0.0, (0.0, ""), 0, 0
    covers = hashlib.sha256()
    for spec, max_slope, overlap, nodes in itertools.product(args.curves, SLOPES, args.overlaps,
                                                             NODES):
        setting = f"{spec} max-slope {max_slope:g} overlap {overlap:g} nodes {nodes}"
        line, seconds, bad = run_setting(parse_curve_spec(spec), max_slope, overlap, nodes,
                                         args.repeat)
        print(f"{setting}: {line} {seconds:.4f} s" + (f" ({bad} fail validate)" if bad else ""))
        covers.update(f"{setting}: {line}\n".encode())
        total += seconds
        slowest = max(slowest, (seconds, setting))
        refused += line.startswith("refused: ")
        failing += bad
    print(f"total {total:.2f} s, slowest {slowest[0]:.4f} s ({slowest[1]}), covers "
          f"{covers.hexdigest()}, {refused} settings refused, {failing} patches fail validate")
    return 1 if refused or failing else 0


if __name__ == "__main__":
    sys.exit(main())
