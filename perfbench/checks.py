"""Output checks that do not rely on the program's own tolerances.

Converted arrays are compared with the analytic traces of the manufactured
oracle (cauchyflow.manufactured) on the same patch, within the error bound
below. The bound models the two error sources of a stencil-based
conversion, truncation and roundoff, for each patch:

    e      = h^4 M5 / 30 + 1.5 U eps M0 / h + U eps S
    bound  = SAFETY * G * e,   G = (8 + 12 max|gamma'|) * max(1, max mu)

M0 and M5 are the largest |u| and |d^5 u / dx1^5| over the velocity trace
(M5 from fifth differences on a grid of at most 65 nodes), S the largest
magnitude of any input array, U the ulps of error in a stored sample,
h^4 M5 / 30 the 5-point stencil's truncation error and 1.5 U eps M0 / h its
roundoff (the stencil weights sum to 18/12 in magnitude). G bounds how
much either conversion direction amplifies an error in the slopes or in an
input: the largest coefficient of the slopes in (dnu, p) is below
8 + 12 |gamma'| times mu, and in the traction below 4 + 4 |gamma'| times mu.
"""

from __future__ import annotations

import json
import math

import numpy as np

EPS = float(np.finfo(float).eps)
#: ulps of error in a stored sample (analytic evaluation plus frame rotation)
VALUE_ULPS = 1.0
#: headroom of the stated bound over the modelled error
SAFETY = 2.0

DN_QUANTITIES = ("dnu1", "dnu2", "p")
STRESS_QUANTITIES = ("t1", "t2")


class CheckFailed(Exception):
    pass


def fifth_derivative(u, h: float) -> float:
    stride = max(1, (u.size - 1) // 64)
    coarse = u[::stride]
    if coarse.size < 6:
        return 0.0
    return float(np.max(np.abs(np.diff(coarse, 5)))) / (h * stride) ** 5


def error_bound(exact: dict, patch) -> float:
    """Bound on the max error of any converted quantity on this patch."""
    h = patch.h
    u1, u2 = exact["u1"], exact["u2"]
    m0 = float(max(np.max(np.abs(u1)), np.max(np.abs(u2))))
    m5 = max(fifth_derivative(u1, h), fifth_derivative(u2, h))
    s = max(float(np.max(np.abs(a))) for a in exact.values())
    e = h ** 4 * m5 / 30.0 + 1.5 * VALUE_ULPS * EPS * m0 / h + VALUE_ULPS * EPS * s
    gain = (8.0 + 12.0 * float(np.max(np.abs(patch.gamma_prime)))) * max(1.0, float(np.max(patch.mu)))
    return SAFETY * gain * e


def trace_arrays(dn, stress) -> dict:
    """The arrays of a (CauchyDN, CauchyStress) pair, keyed as in the dataset schema."""
    return {"u1": dn.u.c1.values, "u2": dn.u.c2.values,
            "dnu1": dn.dnu.c1.values, "dnu2": dn.dnu.c2.values, "p": dn.p.values,
            "t1": stress.traction.c1.values, "t2": stress.traction.c2.values}


def exact_traces(triple, patch) -> dict:
    """Oracle arrays on the full patch grid."""
    from cauchyflow import manufactured

    dn, stress, _ = manufactured.evaluate_traces(triple.flow, triple.pressure, triple.viscosity, patch)
    return trace_arrays(dn, stress)


def max_errors(converted: dict, exact: dict, bound: float) -> dict:
    """Max abs error of each converted interior array; raises CheckFailed past the bound."""
    errors = {}
    for name, values in converted.items():
        want = exact[name][2:-2]
        got = np.asarray(values, dtype=float)
        if got.shape != want.shape:
            raise CheckFailed(f"{name}: {got.shape[0]} nodes, expected {want.shape[0]}")
        err = float(np.max(np.abs(got - want)))
        if not err <= bound:
            raise CheckFailed(f"{name}: max error {err:.3e} exceeds bound {bound:.3e}")
        errors[name] = err
    return errors


def load_doc(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def patch_from_doc(doc: dict):
    from cauchyflow import geometry

    p = doc["patch"]
    return geometry.BoundaryPatch(p["frame_angle"], np.asarray(p["x1_nodes"]),
                                  np.asarray(p["gamma"]), np.asarray(p["gamma_prime"]),
                                  np.asarray(p["mu"]), p["orientation"])


def check_converted_file(path, names, exact: dict, patch, bound: float) -> dict:
    """Check one `convert` output file against the oracle on its input patch."""
    doc = load_doc(path)
    if not np.array_equal(np.asarray(doc["patch"]["x1_nodes"]), patch.x1[2:-2]):
        raise CheckFailed(f"{path}: output grid is not the input's interior")
    return max_errors({name: doc[name] for name in names}, exact, bound)


def check_ellipse_patches(doc: dict, a: float, b: float, nodes: int, max_slope: float) -> None:
    """Every node of a partition of ellipse(a, b) lies on it, within the slope bound."""
    patches = doc["patches"]
    if not patches:
        raise CheckFailed("partition wrote no patches")
    for p in patches:
        x1, g = np.asarray(p["x1_nodes"]), np.asarray(p["gamma"])
        if x1.shape != (nodes,):
            raise CheckFailed(f"partition patch has {x1.shape[0]} nodes, expected {nodes}")
        c, s = math.cos(p["frame_angle"]), math.sin(p["frame_angle"])
        x, y = c * x1 - s * g, s * x1 + c * g
        off = float(np.max(np.abs((x / a) ** 2 + (y / b) ** 2 - 1.0)))
        if not off <= 1e-12:
            raise CheckFailed(f"partition node off the ellipse by {off:.3e}")
        if not float(np.max(np.abs(p["gamma_prime"]))) <= max_slope + 1e-10:
            raise CheckFailed("partition patch exceeds the slope bound")
