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
other node by node. This system and the graph-frame traction formula
below are the reference the conversions are checked against.

The conversions write the same relations in each node's unit tangent
tau = (1, gamma') / theta and outward normal nu, where the determinant is
-mu. With a = (g', h') / theta the tangential derivative of u and J the
velocity gradient, tau.a = tau.J tau, nu.a = nu.J tau and, by
incompressibility, nu.J nu = -tau.a, so

    stress to dn:  dnu = (tau.t / mu - nu.a) tau - (tau.a) nu,
                   p   = -nu.t - 2 mu tau.a;
    dn to stress:  t   = -p nu + mu (dnu + (nu.a) tau + (nu.dnu) nu),

with the divergence tau.a + nu.dnu as the consistency residual (the
graph-frame residual |f1 + gamma' f2 + theta n2| over theta^2). The
orientation is the sign of nu, and no form loses digits at any slope.

All operations broadcast over per-node arrays and are pure functions. An
entry checks, in order, the 8-node rule (tolerance), every array it reads
against the patch grid (node count, then spacing), the 5-node rule, the
patch (BoundaryPatch.validate) and u_prime's shape, then computes in
cache-sized node blocks on all available CPUs (traces.blockwise), stencil
slopes and frames included, to one output at any block size or CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryPatch, _frame, theta
from .traces import MARGIN, ScalarTrace, VectorTrace, blockwise, stencil_neighbours, \
    stencil_slope
# perfbench/tracing.py wraps transform.tangential_derivative by name; the
# conversions themselves apply the stencil inside their blocks
from .traces import tangential_derivative  # noqa: F401

MODEL_NODES = 8  # the error model reads seventh differences of u


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


@dataclass(frozen=True, eq=False)
class CauchyStress:
    """Velocity and surface traction sigma(u, p) nu on a patch."""

    u: VectorTrace
    traction: VectorTrace

    def __post_init__(self):
        if self.u.n != self.traction.n:
            raise ValueError("boundary data traces must share the grid length")


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


def tolerance(patch: BoundaryPatch, dn: CauchyDN, traction: VectorTrace | None = None) -> list:
    """Default tolerance of each check data_checks(patch, dn, traction) runs, in order.

    2 G (T + R + eps S) bounds the stencil error in the check (README,
    "Tolerances"). T = max(0, D5 - D6/2 - D7/4) / (30 h), from the largest
    5th to 7th differences of u1 or u2, is the truncation error; a defect in
    u about doubles each order, so it drops out. R = 1.5 (eps max(M0, X S) +
    2^-1074) / h is the rounding noise of u at nodes up to X = max |(x1,
    gamma)| from the origin; M0 = max |u|. T, M0 and X are worked out once.
    S = max(M0, max |arrays the check reads| on the interior nodes): (dnu, p)
    for the residual, with G = 8; (dnu, p, t) for the deviation, which carries
    mu through p and t, with G = 8 max(1, max mu). Below 8 nodes: ValueError,
    then one for any array that is not on the patch grid (_on_grid).
    """
    if patch.n < MODEL_NODES:
        raise ValueError(f"{patch.n} nodes, fewer than the {MODEL_NODES} the error model needs")
    traces = (dn.dnu.c1, dn.dnu.c2, dn.p) + (() if traction is None else (traction.c1, traction.c2))
    u1, u2, *read = _on_grid(patch, dn.u.c1, dn.u.c2, *traces)
    eps, h, u = float(np.finfo(float).eps), patch.h, (u1, u2)
    t = 0.0
    for v in u:  # np.diff(v, k) is k first differences, so each order extends the last
        d6 = np.diff(d5 := np.diff(v, 5))
        top5, top6, top7 = (float(np.max(np.abs(d))) for d in (d5, d6, np.diff(d6)))
        t = max(t, top5 - top6 / 2.0 - top7 / 4.0)
    m0 = max(float(np.max(np.abs(v))) for v in u)
    x = float(np.max(np.hypot(patch.x1, patch.gamma)))
    top = [float(np.max(np.abs(v[MARGIN:-MARGIN]))) for v in read]
    checks = [(8.0, max(m0, *top[:3]))]
    if traction is not None:
        checks.append((8.0 * max(1.0, float(np.max(patch.mu))), max(m0, *top)))
    return [2.0 * gain * (t / (30.0 * h) + 1.5 * (eps * max(m0, x * s) + 2.0 ** -1074) / h
                          + eps * s) for gain, s in checks]


def stress_to_dn(data: CauchyStress, patch: BoundaryPatch, u_prime=None):
    """Convert (u, traction) data to (u, normal derivative, pressure).

    Trace slopes g', h' come from the 5-point stencil unless `u_prime`
    supplies closed-form d/dx1 values of both velocity components on the
    full patch grid. Output traces live on the interior nodes, i.e. on
    patch.interior(). Returns (CauchyDN, 0.0): traction data satisfy no
    redundant relation, so this direction has no consistency residual and
    the 0.0 only keeps the return shape of dn_to_stress.
    """
    u, d1, d2, p = _per_node(_dn_from_stress, patch, data.u,
                             (data.traction.c1, data.traction.c2), u_prime)
    return CauchyDN(u, VectorTrace.from_arrays(d1, d2, patch.h), ScalarTrace(p, patch.h)), 0.0


def dn_to_stress(data: CauchyDN, patch: BoundaryPatch, u_prime=None):
    """Convert (u, normal derivative, pressure) data to (u, traction).

    Same grid conventions as stress_to_dn. Returns (CauchyStress,
    residual) where the residual is the maximum over interior nodes of
    the boundary divergence |tau.a + nu.dnu|; large values flag data that
    no divergence-free velocity field can produce.
    """
    u, t1, t2, residual = _per_node(_stress_from_dn, patch, data.u,
                                    (data.dnu.c1, data.dnu.c2, data.p), u_prime)
    return CauchyStress(u, VectorTrace.from_arrays(t1, t2, patch.h)), float(np.max(residual))


def data_checks(patch: BoundaryPatch, dn: CauchyDN, traction: VectorTrace | None = None,
                residual_tol=None) -> list:
    """`verify`'s data checks, as [(name, value, tolerance)].

    The consistency residual is dn_to_stress's; given the `traction`, the
    cross-format max deviation is the largest |stress_to_dn output - (dnu,
    p)| on the interior nodes. One blocked pass keeps each block's maxima of
    both, NaN included. Every tolerance is `residual_tol`, else the one
    tolerance(patch, dn, traction) gives, which checks the grid first.
    """
    limits = [residual_tol] * 2 if residual_tol is not None else tolerance(patch, dn, traction)
    traces = (dn.dnu.c1, dn.dnu.c2, dn.p) + (() if traction is None else (traction.c1, traction.c2))
    _, *maxima = _per_node(_checks, patch, dn.u, traces)
    return [(name, float(np.max(m)), limit) for name, m, limit in
            zip(("consistency residual max", "cross-format max deviation"), maxima, limits)]


def _checks(c, w, nu1, nu2, mu, gpr, hpr, n1, n2, p, *traction):
    """Block maxima of |tau.a + nu.dnu| and, given (t1, t2), of |implied (dnu, p) - (n1, n2, p)|."""
    residual = _stress_from_dn(c, w, nu1, nu2, mu, gpr, hpr, n1, n2, p)[2]
    if not traction:
        return (residual,)
    implied = _dn_from_stress(c, w, nu1, nu2, mu, gpr, hpr, *traction)
    return residual, np.max([np.max(np.abs(a - b)) for a, b in zip(implied, (n1, n2, p))])


def _dn_from_stress(c, w, nu1, nu2, mu, gpr, hpr, t1, t2):
    """(dnu1, dnu2, p) from traction and trace slopes; tau = (c, w), nu = (nu1, nu2)."""
    ta = c * (c * gpr + w * hpr)  # tau.a
    k = (c * t1 + w * t2) / mu - c * (nu1 * gpr + nu2 * hpr)  # tau.t / mu - nu.a
    p = -2.0 * mu * ta - nu1 * t1 - nu2 * t2
    return k * c - ta * nu1, k * w - ta * nu2, p


def _stress_from_dn(c, w, nu1, nu2, mu, gpr, hpr, n1, n2, p):
    """(t1, t2, largest divergence |tau.a + nu.dnu|) from (dnu, p) and trace slopes."""
    na = c * (nu1 * gpr + nu2 * hpr)  # nu.a
    nn = nu1 * n1 + nu2 * n2  # nu.dnu
    residual = np.max(np.abs(c * (c * gpr + w * hpr) + nn))
    q = mu * nn - p
    return mu * (n1 + na * c) + q * nu1, mu * (n2 + na * w) + q * nu2, residual


def _on_grid(patch: BoundaryPatch, *traces) -> list:
    """The node arrays of `traces`, once every one has the patch's node count, then its spacing."""
    if any(trace.n != patch.n for trace in traces):
        raise ValueError("data grid does not match the patch grid")
    if any(abs(trace.h - patch.h) > 1e-12 * abs(patch.h) for trace in traces):
        raise ValueError("data grid spacing does not match the patch")
    return [trace.values for trace in traces]


def _per_node(kernel, patch: BoundaryPatch, u: VectorTrace, traces, u_prime=None):
    """Checked interior-node conversion in each node's tangent-normal frame.

    Returns u on the interior nodes, then kernel(c, c gamma', nu1, nu2, mu,
    g', h', *values) run by blocks there, where (c, c gamma') is the unit
    tangent, (nu1, nu2) the outward normal and `values` those of `traces`.
    The checks come first: u and every trace against the patch grid (_on_grid),
    the 5-node rule, patch.validate(), u_prime's shape; the blocks only compute.
    """
    u1, u2, *arrays = _on_grid(patch, u.c1, u.c2, *traces)
    if patch.n < 2 * MARGIN + 1:
        raise ValueError("patch too short for stencil differentiation")
    patch.validate()
    h, orientation = patch.h, patch.orientation
    cut = slice(MARGIN, -MARGIN)
    if u_prime is None:
        # the stencil runs inside the blocks, on its neighbour views
        slope_inputs = (*stencil_neighbours(u1), *stencil_neighbours(u2))

        def slopes(*v):
            return stencil_slope(*v[:4], h), stencil_slope(*v[4:], h)
    else:
        p1, p2 = (np.asarray(v, dtype=float) for v in u_prime)
        if p1.shape != (patch.n,) or p2.shape != (patch.n,):
            raise ValueError("u_prime arrays must match the full patch grid")
        slope_inputs = (p1[cut], p2[cut])

        def slopes(gpr, hpr):
            return gpr, hpr

    k = len(arrays)

    def node_kernel(gp, mu, *arrays):
        return kernel(*_frame(gp, orientation), mu, *slopes(*arrays[k:]), *arrays[:k])

    return (VectorTrace.from_arrays(u1[cut], u2[cut], h),
            *blockwise(node_kernel, patch.gamma_prime[cut], patch.mu[cut],
                       *(a[cut] for a in arrays), *slope_inputs))
