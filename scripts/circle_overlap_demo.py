#!/usr/bin/env python3
"""Partition a closed curve, convert per patch, and audit the overlaps.

Covers the unit circle (or an ellipse) with rotated graph patches, converts
analytic (velocity, traction) data to (velocity, normal derivative,
pressure) in each local frame with exact trace slopes injected, rotates the
results back to the global frame, and reports how well neighbouring patches
agree where they overlap. Agreement at roundoff level demonstrates that the
conversion commutes with the frame choice.

Usage: python scripts/circle_overlap_demo.py [--curve ellipse] [--nodes 200]
"""

import argparse

import numpy as np

from cauchyflow import (FLOWS, PRESSURES, VISCOSITIES, analytic_trace_slopes,
                        circle, ellipse, evaluate_traces, partition_curve,
                        rotate_vector_trace, stress_to_dn)


def window_interp(x_nodes, y_nodes, x, k=12):
    i = int(np.searchsorted(x_nodes, x))
    lo = max(0, min(i - k // 2, x_nodes.shape[0] - k))
    sl = slice(lo, lo + k)
    center = x_nodes[lo]
    coef = np.polynomial.polynomial.polyfit(x_nodes[sl] - center, y_nodes[sl], k - 1)
    return float(np.polynomial.polynomial.polyval(x - center, coef))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--curve", default="circle", choices=("circle", "ellipse"))
    parser.add_argument("--flow", default="stagnation", choices=sorted(FLOWS))
    parser.add_argument("--nodes", type=int, default=200)
    parser.add_argument("--max-slope", type=float, default=1.0)
    parser.add_argument("--overlap", type=float, default=0.2)
    args = parser.parse_args()

    curve = circle(1.0) if args.curve == "circle" else ellipse(2.0, 1.0)
    flow = FLOWS[args.flow]
    pressure = PRESSURES["linear"]
    viscosity = VISCOSITIES["unit"]

    patches = partition_curve(curve, max_slope=args.max_slope,
                              overlap_fraction=args.overlap,
                              nodes_per_patch=args.nodes, mu=viscosity.value)
    print(f"{args.curve}: {len(patches)} patches, "
          f"max |gamma'| = {max(np.max(np.abs(p.gamma_prime)) for p in patches):.6f}")

    fields = []
    for patch in patches:
        dn, stress, grad = evaluate_traces(flow, pressure, viscosity, patch)
        up = analytic_trace_slopes(grad, patch.gamma_prime)
        out, _ = stress_to_dn(stress, patch, u_prime=up)
        inner = patch.interior()
        fields.append({
            "inner": inner,
            "xy": inner.nodes_global(),
            "dnu": rotate_vector_trace(out.dnu, patch.rotation).stacked(),
            "p": out.p.values,
        })

    worst = 0.0
    pairs = 0
    for k, a in enumerate(fields):
        b = fields[(k + 1) % len(fields)]
        ib = b["inner"]
        xi, eta = ib.rotation.inverse().rotate(a["xy"][:, 0], a["xy"][:, 1])
        pad = 4.0 * ib.h
        near = np.abs(eta - np.interp(xi, ib.x1, ib.gamma)) < 0.05
        mask = (xi > ib.x1[0] + pad) & (xi < ib.x1[-1] - pad) & near
        gap = 0.0
        for idx in np.where(mask)[0]:
            x = xi[idx]
            gap = max(
                gap,
                abs(a["dnu"][idx, 0] - window_interp(ib.x1, b["dnu"][:, 0], x)),
                abs(a["dnu"][idx, 1] - window_interp(ib.x1, b["dnu"][:, 1], x)),
                abs(a["p"][idx] - window_interp(ib.x1, b["p"], x)),
            )
        print(f"patches {k:2d} -> {(k + 1) % len(fields):2d}: "
              f"{int(mask.sum()):3d} shared nodes, max disagreement {gap:.3e}")
        worst = max(worst, gap)
        pairs += 1
    print(f"worst overlap disagreement over {pairs} pairs: {worst:.3e}")


if __name__ == "__main__":
    main()
