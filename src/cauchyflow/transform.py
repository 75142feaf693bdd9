"""Pointwise conversion between the two boundary-measurement formats.

On a graph arc x2 = gamma(x1) with the fluid below the graph, write
f1 = d1(u1), f2 = d1(u2), f3 = d2(u1) and f4 = p for the boundary values
of the velocity gradient and the pressure; incompressibility forces
d2(u2) = -f1 there. Differentiating the velocity trace along x1 and
expanding the traction sigma(u, p) nu = (2 mu eps(u) - p I) nu gives four
relations that are linear in (f1, f2, f3, f4):

    [  1         0        gamma'    0      ] [f1]   [ g'        ]
    [ -gamma'    1        0         0      ] [f2] = [ h'        ]
    [ -2 mu g'.  mu       mu        gamma' ] [f3]   [ theta t1  ]
    [ -2 mu     -mu g'.  -mu g'.   -1      ] [f4]   [ theta t2  ]

where (g, h) is the velocity trace, (t1, t2) the traction, theta the
metric factor sqrt(1 + gamma'^2) and "g'." abbreviates gamma'. The
determinant is -mu (1 + gamma'^2)^2, never zero for positive viscosity,
so the two data formats (u, dnu u, p) and (u, sigma nu) determine each
other node by node. Both directions eliminate by hand (see also
gradient_from_dn); assemble_system and solve_system are only the reference
they are checked against. From the traction, row 3 plus gamma' times row 4
leaves mu theta^4 = |det| on f3, the sole pivot; rows 1 and 2 give f1, f2,
and gamma' times row 3 minus row 4 (the normal traction) gives f4 over
theta^2 >= 1. Patches with the domain above the graph are handled by the
mirror map x2 -> -x2, which flips gamma' and every second vector
component in one place, and is undone on output.

All operations broadcast over per-node arrays and are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryPatch, theta
from .traces import MARGIN, ScalarTrace, VectorTrace, tangential_derivative


@dataclass(frozen=True, eq=False)
class GradientTrace:
    """Boundary values (f1, f2, f3, f4) = (d1 u1, d1 u2, d2 u1, p).

    The fourth velocity-gradient entry is implied: d2 u2 = -f1 for a
    divergence-free field.
    """

    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    f4: np.ndarray

    def __post_init__(self):
        for name in ("f1", "f2", "f3", "f4"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.f1.shape == self.f2.shape == self.f3.shape == self.f4.shape):
            raise ValueError("gradient trace components must share one shape")


@dataclass(frozen=True, eq=False)
class CauchyDN:
    """Velocity, normal derivative of velocity, and pressure on a patch."""

    u: VectorTrace
    dnu: VectorTrace
    p: ScalarTrace

    def __post_init__(self):
        if not (self.u.n == self.dnu.n == self.p.n):
            raise ValueError("boundary data traces must share the grid length")

    @property
    def n(self) -> int:
        return self.u.n

    @property
    def h(self) -> float:
        return self.u.h


@dataclass(frozen=True, eq=False)
class CauchyStress:
    """Velocity and surface traction sigma(u, p) nu on a patch."""

    u: VectorTrace
    traction: VectorTrace

    def __post_init__(self):
        if self.u.n != self.traction.n:
            raise ValueError("boundary data traces must share the grid length")

    @property
    def n(self) -> int:
        return self.u.n

    @property
    def h(self) -> float:
        return self.u.h


def assemble_system(gamma_prime, mu) -> np.ndarray:
    """Per-node 4x4 matrix of the boundary relations, shape (..., 4, 4).

    Rows, in order: chain rule for u1 along the graph, chain rule for u2
    (using d2 u2 = -f1), and the two scaled traction components.
    """
    gp, m = np.broadcast_arrays(np.asarray(gamma_prime, dtype=float),
                                np.asarray(mu, dtype=float))
    if np.any(m <= 0):
        raise ValueError("viscosity must be positive")
    a = np.zeros(gp.shape + (4, 4))
    a[..., 0, 0] = 1.0
    a[..., 0, 2] = gp
    a[..., 1, 0] = -gp
    a[..., 1, 1] = 1.0
    a[..., 2, 0] = -2.0 * m * gp
    a[..., 2, 1] = m
    a[..., 2, 2] = m
    a[..., 2, 3] = gp
    a[..., 3, 0] = -2.0 * m
    a[..., 3, 1] = -m * gp
    a[..., 3, 2] = -m * gp
    a[..., 3, 3] = -1.0
    return a


def determinant(a) -> np.ndarray:
    """Exact 4x4 determinant by Laplace expansion along the first two rows.

    Kept independent of the LU-based linear solver so the closed-form
    determinant identity can be checked against a distinct code path.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-2:] != (4, 4):
        raise ValueError("expected trailing shape (4, 4)")
    m01 = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    m02 = a[..., 0, 0] * a[..., 1, 2] - a[..., 0, 2] * a[..., 1, 0]
    m03 = a[..., 0, 0] * a[..., 1, 3] - a[..., 0, 3] * a[..., 1, 0]
    m12 = a[..., 0, 1] * a[..., 1, 2] - a[..., 0, 2] * a[..., 1, 1]
    m13 = a[..., 0, 1] * a[..., 1, 3] - a[..., 0, 3] * a[..., 1, 1]
    m23 = a[..., 0, 2] * a[..., 1, 3] - a[..., 0, 3] * a[..., 1, 2]
    n01 = a[..., 2, 0] * a[..., 3, 1] - a[..., 2, 1] * a[..., 3, 0]
    n02 = a[..., 2, 0] * a[..., 3, 2] - a[..., 2, 2] * a[..., 3, 0]
    n03 = a[..., 2, 0] * a[..., 3, 3] - a[..., 2, 3] * a[..., 3, 0]
    n12 = a[..., 2, 1] * a[..., 3, 2] - a[..., 2, 2] * a[..., 3, 1]
    n13 = a[..., 2, 1] * a[..., 3, 3] - a[..., 2, 3] * a[..., 3, 1]
    n23 = a[..., 2, 2] * a[..., 3, 3] - a[..., 2, 3] * a[..., 3, 2]
    return m01 * n23 - m02 * n13 + m03 * n12 + m12 * n03 - m13 * n02 + m23 * n01


def traction_from_gradient(grad: GradientTrace, gamma_prime, mu):
    """Traction sigma(u, p) nu for a domain-below graph, as (t1, t2).

    Evaluates the two scaled traction rows and divides by theta; callers
    with a domain-above patch negate the result, since their outward
    normal is reversed.
    """
    gp = np.asarray(gamma_prime, dtype=float)
    m = np.asarray(mu, dtype=float)
    if np.any(m <= 0):
        raise ValueError("viscosity must be positive")
    th = theta(gp)
    q1 = -2.0 * gp * m * grad.f1 + m * grad.f2 + m * grad.f3 + gp * grad.f4
    q2 = -2.0 * m * grad.f1 - gp * m * grad.f2 - gp * m * grad.f3 - grad.f4
    return q1 / th, q2 / th


def normal_derivative_from_gradient(grad: GradientTrace, gamma_prime, orientation: str = "below"):
    """Normal derivative (nu . grad) u as (d1, d2), using d2 u2 = -f1."""
    gp = np.asarray(gamma_prime, dtype=float)
    th = theta(gp)
    d1 = (-gp * grad.f1 + grad.f3) / th
    d2 = (-gp * grad.f2 - grad.f1) / th
    if orientation == "above":
        return -d1, -d2
    if orientation != "below":
        raise ValueError("orientation must be 'below' or 'above'")
    return d1, d2


def solve_system(gamma_prime, mu, rhs) -> np.ndarray:
    """Solve the per-node 4x4 system for (f1, f2, f3, f4).

    Uses LU with partial pivoting per node; rhs has shape (..., 4) and the
    residual |A f - rhs| stays below 1e-12 (1 + |rhs|).
    """
    a = assemble_system(gamma_prime, mu)
    b = np.asarray(rhs, dtype=float)
    if b.shape[-1] != 4:
        raise ValueError("rhs must have trailing length 4")
    return np.linalg.solve(a, b[..., None])[..., 0]


def gradient_from_dn(g_prime, h_prime, dnu, gamma_prime):
    """Recover (f1, f2, f3) from trace slopes and the normal derivative.

    Works in the domain-below frame. Returns (f1, f2, f3, residual). Three
    of the four boundary relations fix the unknowns through pivots bounded
    below by theta^2 >= 1; the leftover relation is reported as a
    data-consistency residual, zero exactly when the input is compatible
    with a divergence-free field.
    """
    n1, n2 = (np.asarray(v, dtype=float) for v in dnu)
    gp = np.asarray(gamma_prime, dtype=float)
    gpr = np.asarray(g_prime, dtype=float)
    hpr = np.asarray(h_prime, dtype=float)
    th = theta(gp)
    th2 = 1.0 + gp * gp
    f1 = (gpr - gp * th * n1) / th2
    f3 = th * n1 + gp * f1
    f2 = hpr + gp * f1
    residual = np.abs(-f1 - gp * f2 - th * n2)
    return f1, f2, f3, residual


def default_residual_tol(h: float, data_scale: float) -> float:
    """Consistency-residual tolerance matching the stencil error floor."""
    return 10.0 * float(h) ** 4 * float(data_scale)


def stress_to_dn(data: CauchyStress, patch: BoundaryPatch, u_prime=None):
    """Convert (u, traction) data to (u, normal derivative, pressure).

    Trace slopes g', h' come from the 5-point stencil unless `u_prime`
    supplies closed-form d/dx1 values of both velocity components on the
    full patch grid. Output traces live on the interior nodes, i.e. on
    patch.interior(). Returns (CauchyDN, 0.0): traction data satisfy no
    redundant relation, so this direction has no consistency residual and
    the 0.0 only keeps the return shape of dn_to_stress.
    """
    s, cut, gp, mu, gpr, hpr = _local_slopes(data, patch, u_prime)
    t1 = data.traction.c1.values[cut]
    t2 = s * data.traction.c2.values[cut]
    th = theta(gp)
    th2 = 1.0 + gp * gp
    f3 = (th * (t1 + gp * t2) + 4.0 * mu * gp * gpr
          - mu * (1.0 - gp * gp) * (hpr + gp * gpr)) / (mu * th2 * th2)
    f1 = gpr - gp * f3
    f2 = hpr + gp * f1
    # p = 2 mu eps_nn - t . nu (row 3 times gamma' minus row 4); row 4 alone
    # cancels terms of size mu gamma'^3 |f| and loses digits at steep slopes
    f4 = (th * (gp * t1 - t2) - 2.0 * mu * ((1.0 - gp * gp) * f1 + gp * (f2 + f3))) / th2
    d1, d2 = normal_derivative_from_gradient(GradientTrace(f1, f2, f3, f4), gp)
    h = patch.h
    return CauchyDN(
        VectorTrace.from_arrays(data.u.c1.values[cut], data.u.c2.values[cut], h),
        VectorTrace.from_arrays(d1, s * d2, h),
        ScalarTrace(f4, h),
    ), 0.0


def dn_to_stress(data: CauchyDN, patch: BoundaryPatch, u_prime=None):
    """Convert (u, normal derivative, pressure) data to (u, traction).

    Same grid conventions as stress_to_dn. Returns (CauchyStress,
    residual) where the residual is the maximum over interior nodes of
    the redundant boundary relation; large values flag data that no
    divergence-free velocity field can produce.
    """
    s, cut, gp, mu, gpr, hpr = _local_slopes(data, patch, u_prime)
    dnu = (data.dnu.c1.values[cut], s * data.dnu.c2.values[cut])
    f1, f2, f3, residual = gradient_from_dn(gpr, hpr, dnu, gp)
    t1, t2 = traction_from_gradient(GradientTrace(f1, f2, f3, data.p.values[cut]), gp, mu)
    h = patch.h
    return CauchyStress(
        VectorTrace.from_arrays(data.u.c1.values[cut], data.u.c2.values[cut], h),
        VectorTrace.from_arrays(t1, s * t2, h),
    ), float(np.max(residual))


def _local_slopes(data, patch: BoundaryPatch, u_prime):
    """Checked interior-node inputs of a conversion in the domain-below frame.

    Returns (s, cut, gamma', mu, g', h'), where s is -1.0 on a domain-above
    patch and 1.0 otherwise, and gamma' and h' already carry the mirror.
    Callers multiply the second component of their input and output by s.
    """
    if data.n != patch.n:
        raise ValueError("data grid does not match the patch grid")
    if abs(data.h - patch.h) > 1e-12 * abs(patch.h):
        raise ValueError("data grid spacing does not match the patch")
    if patch.n < 2 * MARGIN + 1:
        raise ValueError("patch too short for stencil differentiation")
    patch.validate()
    s = -1.0 if patch.orientation == "above" else 1.0
    cut = slice(MARGIN, -MARGIN)
    if u_prime is None:
        gpr = tangential_derivative(ScalarTrace(data.u.c1.values, patch.h)).values
        hpr = tangential_derivative(ScalarTrace(data.u.c2.values, patch.h)).values
    else:
        p1, p2 = (np.asarray(v, dtype=float) for v in u_prime)
        if p1.shape != (patch.n,) or p2.shape != (patch.n,):
            raise ValueError("u_prime arrays must match the full patch grid")
        gpr, hpr = p1[cut], p2[cut]
    return s, cut, s * patch.gamma_prime[cut], patch.mu[cut], gpr, s * hpr
