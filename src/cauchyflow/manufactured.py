"""Analytic divergence-free flows with exact boundary traces.

Every flow is built from a stream function psi, so u = (d2 psi, -d1 psi)
is divergence free by construction rather than by assertion. Partials are
hand-coded per entry, keeping the oracle independent of the numerical
differentiation it is used to test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import BoundaryPatch
from .traces import ScalarTrace, VectorTrace
from .transform import CauchyDN, CauchyStress, GradientTrace, \
    normal_derivative_from_gradient, traction_from_gradient


@dataclass(frozen=True)
class AnalyticFlow:
    """Velocity field u = (d2 psi, -d1 psi) with closed-form psi partials."""

    name: str
    psi: Callable
    psi_1: Callable
    psi_2: Callable
    psi_11: Callable
    psi_12: Callable
    psi_22: Callable

    def velocity(self, x1, x2):
        return self.psi_2(x1, x2), -self.psi_1(x1, x2)

    def gradient(self, x1, x2):
        """Velocity-gradient entries (d1 u1, d1 u2, d2 u1); d2 u2 = -d1 u1."""
        return self.psi_12(x1, x2), -self.psi_11(x1, x2), self.psi_22(x1, x2)


@dataclass(frozen=True)
class AnalyticScalarField:
    """Scalar field (pressure or viscosity) given by its closed-form value."""

    name: str
    value: Callable


def _const_field(c):
    c = float(c)

    def f(x1, x2):
        return np.full_like(np.asarray(x1, dtype=float), c)

    return f


def rigid_motion(a: float = 0.0, b: float = 0.0, omega: float = 1.0,
                 name: str = "rigid-motion") -> AnalyticFlow:
    """Translation plus rotation u = (a + omega x2, b - omega x1); zero strain."""
    return AnalyticFlow(
        name=name,
        psi=lambda x1, x2: a * x2 - b * x1 + 0.5 * omega * (x1 ** 2 + x2 ** 2),
        psi_1=lambda x1, x2: -b + omega * np.asarray(x1, dtype=float),
        psi_2=lambda x1, x2: a + omega * np.asarray(x2, dtype=float),
        psi_11=_const_field(omega),
        psi_12=_const_field(0.0),
        psi_22=_const_field(omega),
    )


FLOWS = {
    "rigid-rotation": rigid_motion(name="rigid-rotation"),
    "couette": AnalyticFlow(
        name="couette",
        psi=lambda x1, x2: 0.5 * x2 ** 2,
        psi_1=_const_field(0.0),
        psi_2=lambda x1, x2: np.asarray(x2, dtype=float),
        psi_11=_const_field(0.0),
        psi_12=_const_field(0.0),
        psi_22=_const_field(1.0),
    ),
    "stagnation": AnalyticFlow(
        name="stagnation",
        psi=lambda x1, x2: x1 * x2,
        psi_1=lambda x1, x2: np.asarray(x2, dtype=float),
        psi_2=lambda x1, x2: np.asarray(x1, dtype=float),
        psi_11=_const_field(0.0),
        psi_12=_const_field(1.0),
        psi_22=_const_field(0.0),
    ),
    "cubic": AnalyticFlow(
        name="cubic",
        psi=lambda x1, x2: x1 ** 2 * x2,
        psi_1=lambda x1, x2: 2.0 * x1 * x2,
        psi_2=lambda x1, x2: np.asarray(x1, dtype=float) ** 2,
        psi_11=lambda x1, x2: 2.0 * np.asarray(x2, dtype=float),
        psi_12=lambda x1, x2: 2.0 * np.asarray(x1, dtype=float),
        psi_22=_const_field(0.0),
    ),
    "trig": AnalyticFlow(
        name="trig",
        psi=lambda x1, x2: np.sin(x1) * np.cos(x2),
        psi_1=lambda x1, x2: np.cos(x1) * np.cos(x2),
        psi_2=lambda x1, x2: -np.sin(x1) * np.sin(x2),
        psi_11=lambda x1, x2: -np.sin(x1) * np.cos(x2),
        psi_12=lambda x1, x2: -np.cos(x1) * np.sin(x2),
        psi_22=lambda x1, x2: -np.sin(x1) * np.cos(x2),
    ),
}

PRESSURES = {
    "zero": AnalyticScalarField("zero", _const_field(0.0)),
    "linear": AnalyticScalarField(
        "linear",
        lambda x1, x2: np.asarray(x1, dtype=float) + 2.0 * np.asarray(x2, dtype=float),
    ),
    "trig": AnalyticScalarField("trig", lambda x1, x2: np.sin(x1 + x2)),
}

VISCOSITIES = {
    "unit": AnalyticScalarField("unit", _const_field(1.0)),
    "variable": AnalyticScalarField("variable", lambda x1, x2: 2.0 + np.sin(x1) * np.cos(x2)),
}


@dataclass(frozen=True)
class CatalogTriple:
    name: str
    flow: AnalyticFlow
    pressure: AnalyticScalarField
    viscosity: AnalyticScalarField


def builtin_catalog() -> list[CatalogTriple]:
    """All (flow, pressure, viscosity) combinations, deterministically ordered."""
    triples = []
    for flow in FLOWS.values():
        for pres in PRESSURES.values():
            for visc in VISCOSITIES.values():
                triples.append(CatalogTriple(
                    f"{flow.name}/{pres.name}/{visc.name}", flow, pres, visc))
    return triples


def evaluate_traces(flow: AnalyticFlow, pressure: AnalyticScalarField,
                    viscosity: AnalyticScalarField, patch: BoundaryPatch):
    """Exact boundary data of an analytic flow on a patch.

    Evaluates velocity, velocity gradient, pressure and viscosity at the
    patch nodes in the global frame and rotates them into the patch frame;
    the gradient is rotated entry by entry, forming only the three local
    entries (f1, f2, f3) the boundary formulas read. It then derives the
    normal derivative and the traction through the gradient-based
    boundary formulas. Returns mutually consistent
    (CauchyDN, CauchyStress, GradientTrace); viscosity values come from
    the field, which should agree with patch.mu for later conversions.
    """
    nodes = patch.nodes_global()
    xg, yg = nodes[:, 0], nodes[:, 1]

    mu_vals = np.asarray(viscosity.value(xg, yg), dtype=float) * np.ones_like(xg)
    if np.any(mu_vals <= 0):
        raise ValueError("viscosity field is not positive on the patch")
    p_vals = np.asarray(pressure.value(xg, yg), dtype=float) * np.ones_like(xg)

    ug1, ug2 = (np.asarray(v, dtype=float) * np.ones_like(xg) for v in flow.velocity(xg, yg))
    g11, g21, g12 = (np.asarray(v, dtype=float) * np.ones_like(xg) for v in flow.gradient(xg, yg))

    jac = ((g11, g12), (g21, -g11))
    rot = patch.rotation.matrix
    # entry (i, l) of rot.T @ J @ rot, summed from 0, j-major, left to right:
    # the rounding, signed zeros included, of a batched 3-operand contraction,
    # so generated files keep their bytes
    f1, f2, f3 = (sum(rot[j, i] * jac[j][k] * rot[k, l] for j in (0, 1) for k in (0, 1))
                  for i, l in ((0, 0), (1, 0), (0, 1)))
    grad = GradientTrace(f1, f2, f3, p_vals)

    u_local = np.stack([ug1, ug2], axis=-1) @ rot  # equals (rot.T @ u) per node

    d1, d2 = normal_derivative_from_gradient(grad, patch.gamma_prime)
    t1, t2 = traction_from_gradient(grad, patch.gamma_prime, mu_vals)
    if patch.orientation == "above":
        # the outward normal is reversed, and both quantities are linear in it
        d1, d2, t1, t2 = -d1, -d2, -t1, -t2

    h = patch.h
    u_trace = VectorTrace.from_arrays(u_local[:, 0], u_local[:, 1], h)
    dn = CauchyDN(u_trace, VectorTrace.from_arrays(d1, d2, h), ScalarTrace(p_vals, h))
    stress = CauchyStress(u_trace, VectorTrace.from_arrays(t1, t2, h))
    return dn, stress, grad


def analytic_trace_slopes(grad: GradientTrace, gamma_prime):
    """Closed-form d/dx1 of the velocity trace from gradient boundary values.

    Chain rule along the graph: g' = f1 + gamma' f3 and, using
    d2 u2 = -f1, h' = f2 - gamma' f1. Supply these to the conversion
    routines to bypass stencil differentiation entirely.
    """
    gp = np.asarray(gamma_prime, dtype=float)
    return grad.f1 + gp * grad.f3, grad.f2 - gp * grad.f1
