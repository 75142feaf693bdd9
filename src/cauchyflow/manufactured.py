"""Analytic divergence-free flows with exact boundary traces.

Every flow is u = (d2 psi, -d1 psi) for a stream function psi, given in a
comment beside it, so it is divergence free by construction. Velocity and
its partials are hand-coded in one closed form per flow, keeping the oracle
independent of the numerical differentiation it is used to test.

Every field is pointwise, so `evaluate_traces` evaluates a patch in
cache-sized node blocks on all available CPUs (traces.blockwise); its
output does not depend on the block size or the CPU count. The boundary
data come from the velocity gradient by definition, in formulas of this
module alone, so the oracle shares none with the conversions it checks.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import BoundaryPatch, _frame, on_grid
from .traces import ScalarTrace, VectorTrace, blockwise
from .transform import CauchyDN, CauchyStress, GradientTrace


@dataclass(frozen=True)
class AnalyticFlow:
    """Velocity field u = (d2 psi, -d1 psi) of a stream function psi.

    `fields(x1, x2)` returns (u1, u2, d1 u1, d1 u2, d2 u1) as float arrays
    of the node shape, computing shared subexpressions once; d2 u2 = -d1 u1.
    It must be pointwise in (x1, x2): each node's values depend on that
    node's coordinates alone, as the oracle evaluates nodes in blocks.
    """

    name: str
    fields: Callable


@dataclass(frozen=True)
class AnalyticScalarField:
    """Scalar field (pressure or viscosity) given by its closed-form value.

    `value(x1, x2)` must be pointwise in (x1, x2), as for AnalyticFlow.
    """

    name: str
    value: Callable


def _const_field(c):
    c = float(c)

    def f(x1, x2):
        return np.full_like(np.asarray(x1, dtype=float), c)

    return f


_BLOCK_CACHE = ContextVar("_BLOCK_CACHE", default=None)  # {(name, id(x)): (x, np.<name>(x))}


def _shared(name, x):
    """np.<name>(x), computed once per array while evaluate_traces evaluates a block's fields."""
    cache = _BLOCK_CACHE.get()
    if cache is None:
        return getattr(np, name)(x)
    if (name, id(x)) not in cache:  # holding x keeps its id from being reused
        cache[name, id(x)] = x, getattr(np, name)(x)
    return cache[name, id(x)][1]


def _floats(x1, x2):
    return np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)


def _full(x, *values):
    return tuple(np.full_like(x, v) for v in values)


def rigid_motion(a: float = 0.0, b: float = 0.0, omega: float = 1.0,
                 name: str = "rigid-motion") -> AnalyticFlow:
    """Translation plus rotation u = (a + omega x2, b - omega x1); zero strain."""
    # psi = a x2 - b x1 + omega (x1^2 + x2^2) / 2
    c = float(omega)

    def fields(x1, x2):
        x1, x2 = _floats(x1, x2)
        return a + omega * x2, -(-b + omega * x1), *_full(x1, 0.0, -c, c)

    return AnalyticFlow(name, fields)


def _couette(x1, x2):  # psi = x2^2 / 2
    x1, x2 = _floats(x1, x2)
    return x2, *_full(x1, -0.0, 0.0, -0.0, 1.0)


def _stagnation(x1, x2):  # psi = x1 x2
    x1, x2 = _floats(x1, x2)
    return x1, -x2, *_full(x1, 1.0, -0.0, 0.0)


def _cubic(x1, x2):  # psi = x1^2 x2
    x1, x2 = _floats(x1, x2)
    d1u1 = 2.0 * x1
    return x1 ** 2, -(d1u1 * x2), d1u1, -(2.0 * x2), *_full(x1, 0.0)


def _trig(x1, x2):  # psi = sin(x1) cos(x2)
    s1, c1, s2, c2 = _shared("sin", x1), _shared("cos", x1), _shared("sin", x2), _shared("cos", x2)
    d1u2 = s1 * c2
    return -(s1 * s2), -(c1 * c2), -(c1 * s2), d1u2, -d1u2


FLOWS = {
    "rigid-rotation": rigid_motion(name="rigid-rotation"),
    "couette": AnalyticFlow("couette", _couette),
    "stagnation": AnalyticFlow("stagnation", _stagnation),
    "cubic": AnalyticFlow("cubic", _cubic),
    "trig": AnalyticFlow("trig", _trig),
}

PRESSURES = {
    "zero": AnalyticScalarField("zero", _const_field(0.0)),
    "linear": AnalyticScalarField(
        "linear",
        lambda x1, x2: np.asarray(x1, dtype=float) + 2.0 * np.asarray(x2, dtype=float),
    ),
    # sin(x1 + x2), expanded into the four values the trig flow shares
    "trig": AnalyticScalarField("trig", lambda x1, x2: _shared("sin", x1) * _shared("cos", x2)
                                + _shared("cos", x1) * _shared("sin", x2)),
}

VISCOSITIES = {
    "unit": AnalyticScalarField("unit", _const_field(1.0)),
    "variable": AnalyticScalarField(
        "variable", lambda x1, x2: 2.0 + _shared("sin", x1) * _shared("cos", x2)),
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


_ORACLE_OUTPUTS = ("u1", "u2", "dnu1", "dnu2", "p", "t1", "t2", "f1", "f2", "f3")


def evaluate_traces(flow: AnalyticFlow, pressure: AnalyticScalarField,
                    viscosity: AnalyticScalarField, patch: BoundaryPatch):
    """Exact boundary data of an analytic flow on a patch.

    Evaluates velocity, velocity gradient, pressure and viscosity at the
    patch nodes in the global frame and rotates them into the patch frame,
    unless the frame angle is 0, where the global values are the local ones;
    the local gradient is J applied to each local axis, read in local
    components: f1, f2, f3 of J = [[f1, f3], [f2, -f1]]. With nu the outward
    unit normal, the normal derivative is J nu and the traction is
    sigma nu = (mu (J + J^T) - p I) nu, by definition. Returns mutually consistent
    (CauchyDN, CauchyStress, GradientTrace); viscosity values come from
    the field, which should agree with patch.mu for later conversions.

    The nodes are evaluated in blocks (see traces.blockwise). Raises
    ValueError if the viscosity is not positive, or naming the first
    output that is not finite, e.g. where the fields overflow.
    """
    rotation = patch.rotation
    rotated = patch.frame_angle != 0.0
    to_local = rotation.inverse().rotate
    (e1, e2), (e3, e4) = rotation.rotate(1.0, 0.0), rotation.rotate(0.0, 1.0)  # the local axes

    def kernel(x1, gamma, gamma_prime):
        with np.errstate(over="ignore", invalid="ignore"):
            xg, yg = rotation.rotate(x1, gamma) if rotated else (x1, gamma)  # patch.nodes_global()
            token = _BLOCK_CACHE.set({})
            try:
                mu_vals = on_grid(viscosity.value(xg, yg), xg)
                if not mu_vals.min() > 0:
                    raise ValueError("viscosity field is not positive on the patch")
                p_vals = on_grid(pressure.value(xg, yg), xg)
                ug1, ug2, g11, g21, g12 = (on_grid(v, xg) for v in flow.fields(xg, yg))
            finally:  # the cached values are read no more
                _BLOCK_CACHE.reset(token)
            if rotated:
                # column l of R^T J R is J applied to local axis l, read in local components
                f1, f2 = to_local(g11 * e1 + g12 * e2, g21 * e1 - g11 * e2)
                f3 = to_local(g11 * e3 + g12 * e4, g21 * e3 - g11 * e4)[0]
                u1, u2 = to_local(ug1, ug2)
            else:  # the patch frame is the global one
                u1, u2, f1, f2, f3 = ug1, ug2, g11, g21, g12
            # the global-frame arrays are read no more: free them before the
            # boundary formulas allocate theirs, which keeps the block's peak down
            del xg, yg, ug1, ug2, g11, g21, g12

            nu1, nu2 = _frame(gamma_prime, patch.orientation)[2:]
            f1nu1, f1nu2 = f1 * nu1, f1 * nu2
            d1, d2 = f1nu1 + f3 * nu2, f2 * nu1 - f1nu2
            # t = mu (J nu + J^T nu) - p nu, with J^T nu = (f1 nu1 + f2 nu2, f3 nu1 - f1 nu2)
            t1 = mu_vals * (d1 + f1nu1 + f2 * nu2) - p_vals * nu1
            t2 = mu_vals * (d2 + f3 * nu1 - f1nu2) - p_vals * nu2
        values = (u1, u2, d1, d2, p_vals, t1, t2, f1, f2, f3)
        for name, v in zip(_ORACLE_OUTPUTS, values):
            if not np.isfinite(v).all():
                # the wording of the writer, which refuses the same values
                raise ValueError(f"cannot serialize non-finite value: oracle value {name} "
                                 "is not finite on the patch")
        return values

    u1, u2, d1, d2, p_vals, t1, t2, f1, f2, f3 = blockwise(
        kernel, patch.x1, patch.gamma, patch.gamma_prime)
    h = patch.h
    u_trace = VectorTrace.from_arrays(u1, u2, h)
    dn = CauchyDN(u_trace, VectorTrace.from_arrays(d1, d2, h), ScalarTrace(p_vals, h))
    stress = CauchyStress(u_trace, VectorTrace.from_arrays(t1, t2, h))
    return dn, stress, GradientTrace(f1, f2, f3, p_vals)


def analytic_trace_slopes(grad: GradientTrace, gamma_prime):
    """Closed-form d/dx1 of the velocity trace from gradient boundary values.

    Chain rule along the graph: g' = f1 + gamma' f3 and, using
    d2 u2 = -f1, h' = f2 - gamma' f1. Supply these to the conversion
    routines to bypass stencil differentiation entirely.
    """
    gp = np.asarray(gamma_prime, dtype=float)
    return grad.f1 + gp * grad.f3, grad.f2 - gp * grad.f1
