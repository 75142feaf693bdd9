#!/usr/bin/env python3
"""Grid-refinement study for the stencil-based boundary-data conversions.

Converts analytic trigonometric-flow data on a sine-shaped patch at a
sequence of resolutions, measures the max-norm error of the converted
(normal derivative, pressure) and traction against the closed-form
oracle, and prints the observed convergence orders (expected: 4) and each
level's largest error over the cross-format deviation's tolerance, the
second of `transform.tolerance(patch, dn, traction)`, which reads every
array of both formats (at most 1 where the error model holds).

Usage: python scripts/convergence_study.py [--flow trig] [--shape sine]
"""

import argparse

import numpy as np

from cauchyflow import (FLOWS, PRESSURES, VISCOSITIES, dn_to_stress,
                        evaluate_traces, graph_patch, stress_to_dn, tolerance)

SHAPES = {
    "flat": (lambda x: 0.0 * x, lambda x: 0.0 * x),
    "sine": (lambda x: 0.3 * np.sin(x), lambda x: 0.3 * np.cos(x)),
}


def conversion_errors(flow, pressure, viscosity, shape, n):
    gamma, gamma_prime = SHAPES[shape]
    patch = graph_patch(gamma, gamma_prime, -1.0, 1.0, n, mu=viscosity.value)
    dn, stress, _ = evaluate_traces(flow, pressure, viscosity, patch)

    dn_num, _ = stress_to_dn(stress, patch)
    err_dn = max(
        np.max(np.abs(dn_num.dnu.c1.values - dn.dnu.c1.values[2:-2])),
        np.max(np.abs(dn_num.dnu.c2.values - dn.dnu.c2.values[2:-2])),
        np.max(np.abs(dn_num.p.values - dn.p.values[2:-2])),
    )
    stress_num, _ = dn_to_stress(dn, patch)
    err_tr = max(
        np.max(np.abs(stress_num.traction.c1.values - stress.traction.c1.values[2:-2])),
        np.max(np.abs(stress_num.traction.c2.values - stress.traction.c2.values[2:-2])),
    )
    # the cross-format deviation's tolerance reads (u, dnu, p, t) and carries mu's gain
    ratio = max(err_dn, err_tr) / tolerance(patch, dn, stress.traction)[1]
    return patch.h, float(err_dn), float(err_tr), float(ratio)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flow", default="trig", choices=sorted(FLOWS))
    parser.add_argument("--pressure", default="trig", choices=sorted(PRESSURES))
    parser.add_argument("--viscosity", default="variable", choices=sorted(VISCOSITIES))
    parser.add_argument("--shape", default="sine", choices=sorted(SHAPES))
    parser.add_argument("--levels", type=int, default=5)
    args = parser.parse_args()

    flow = FLOWS[args.flow]
    pressure = PRESSURES[args.pressure]
    viscosity = VISCOSITIES[args.viscosity]

    rows = []
    n = 36
    for _ in range(args.levels):
        rows.append(conversion_errors(flow, pressure, viscosity, args.shape, n))
        n = 2 * n - 1  # halves h while keeping the endpoints

    print(f"flow={args.flow} pressure={args.pressure} viscosity={args.viscosity} "
          f"shape={args.shape}")
    print(f"{'h':>12} {'err(dnu,p)':>12} {'order':>7} {'err(traction)':>14} {'order':>7} "
          f"{'err/tol':>8}")
    for i, (h, e_dn, e_tr, ratio) in enumerate(rows):
        if i == 0:
            print(f"{h:12.4e} {e_dn:12.4e} {'-':>7} {e_tr:14.4e} {'-':>7} {ratio:8.3f}")
        else:
            o_dn = np.log2(rows[i - 1][1] / e_dn)
            o_tr = np.log2(rows[i - 1][2] / e_tr)
            print(f"{h:12.4e} {e_dn:12.4e} {o_dn:7.3f} {e_tr:14.4e} {o_tr:7.3f} {ratio:8.3f}")


if __name__ == "__main__":
    main()
