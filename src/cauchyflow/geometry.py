"""Smooth plane curves and their decomposition into rotated graph patches.

A patch represents a boundary arc as x2 = gamma(x1) in a local frame
obtained by rotating the global frame, sampled on a uniform x1 grid. Each
grid carries two margin nodes per end so that 5-point interior stencils
apply everywhere a converted quantity is reported. Grids are snapped onto
a dyadic raster, which makes consecutive node differences bitwise equal to
the stored spacing.

Patch nodes are found by inverting the curve's local abscissa x(t) for the
grid targets in one pass over a dense table of x: each block of the table
brackets the targets it covers, and a vectorized Newton iteration (slope
from the curve velocity, bisection when a step leaves its bracket) refines
them to the floats that fit best before the block is dropped. A table sample
that is not finite, a target outside the tabulated window, or a node that
does not converge raises ValueError. Every curve then gives gamma and
gamma' at a node from its own position and velocity there, so no patch
differentiates gamma numerically.

Conventions:
  * orientation "below" means the fluid domain lies locally under the
    graph, so the outward normal is (-gamma', 1)/theta; "above" negates it.
  * FrameRotation(a).rotate(v1, v2) maps local-frame components to the global
    frame, .inverse().rotate back; every change of frame goes through it.
  * a closed curve's tangent must turn exactly once; when it turns
    counterclockwise the interior sits on the left of the tangent, which in
    a tangent-aligned local frame is the "above" side. Open arcs are
    partitioned as "below"; graph_patch takes either orientation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import traces
from .traces import MARGIN, VectorTrace, blockwise

ORIENTATIONS = ("below", "above")
CURVE_KINDS = ("analytic-closed-form", "open")

# fraction of the slope cone the partitioner actually budgets per patch,
# leaving headroom for between-sample tangent excursions
_CONE_SAFETY = 0.95
_SAMPLES = 4096  # the partitioner samples the curve at t = k / _SAMPLES
_CORNER_TOL = 0.35  # a larger tangent-angle step between samples is a corner
_TURNS_TOO_FAST = ("max_slope is too small for this curve: its tangent turns past "
                   "the slope cone between adjacent samples")

_EPS = float(np.finfo(float).eps)
# Newton from a dense-table bracket converges in a few steps; the cap leaves
# room for the bisections a noisy or flat abscissa forces (a bracket of
# 1e-5 halves to roundoff in about 40)
_INVERT_MAX_STEPS = 100
_STEP_SLICE = 1 << 16  # grid steps validate differences at a time


def positive_finite(name: str, value) -> float:
    """`value` as a float; ValueError unless an int or float (numpy's too) in (0, float max]."""
    number = value.item() if isinstance(value, np.generic) else value  # a float32 can't hold max
    if type(number) not in (int, float) or not 0 < number <= sys.float_info.max:  # 10**400 < inf
        raise ValueError(f"{name} must be a positive finite number, not {value!r}")
    return float(number)


def theta(gamma_prime):
    """Graph metric factor sqrt(1 + gamma'^2); np.hypot(1, gamma') where the square overflows."""
    gp = np.asarray(gamma_prime, dtype=float)
    with np.errstate(over="ignore"):
        th = np.sqrt(1.0 + gp * gp)
    # fmax skips a NaN, which max would return in place of an overflow's inf
    return np.hypot(1.0, gp) if np.fmax.reduce(th, axis=None, initial=1.0) == np.inf else th


@dataclass(frozen=True)
class FrameRotation:
    """Proper rotation by `angle`, taking local components to the parent frame."""

    angle: float

    def inverse(self) -> "FrameRotation":
        return FrameRotation(-self.angle)

    def rotate(self, a, b):
        """Parent-frame components (c a - s b, s a + c b) of the local vector (a, b)."""
        c, s = math.cos(self.angle), math.sin(self.angle)
        return c * a - s * b, s * a + c * b


def rotate_vector_trace(v: VectorTrace, rot: FrameRotation) -> VectorTrace:
    """The per-node 2-vectors of `v` rotated by `rot`, on the same grid."""
    return VectorTrace.from_arrays(*rot.rotate(v.c1.values, v.c2.values), v.h)


def uniform_grid(lo: float, hi: float, n: int) -> tuple[np.ndarray, float]:
    """Uniform grid of n nodes inside [lo, hi] with exactly equal spacing.

    Spacing and origin are snapped to a dyadic raster (granularity about
    h * 2**-32) so every node is an exact integer multiple of the raster;
    successive floating-point differences then equal h bit for bit. The
    snap moves each endpoint inward by less than one raster step.
    """
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"node count must be an integer, got {n!r}")
    if n < 2:
        raise ValueError("grid needs at least 2 nodes")
    lo, hi = float(lo), float(hi)
    if not hi > lo:
        raise ValueError("grid span is empty")
    if hi - lo == math.inf:
        raise ValueError(f"grid span [{lo!r}, {hi!r}] is not finite")
    want = (hi - lo) / (n - 1)
    _, e = math.frexp(want)
    scale = math.ldexp(1.0, e - 33)
    if scale == 0:  # a spacing below about 2**-1041 has no raster step
        raise ValueError("grid span too small for the requested node count")
    start = math.ceil(lo / scale) * scale
    h = math.floor((hi - start) / (n - 1) / scale) * scale
    if h <= 0:
        raise ValueError("grid span too small for the requested node count")
    x = start + h * np.arange(n)
    return x, h


def on_grid(values, x) -> np.ndarray:
    """`values` as a float array shaped like the grid `x`.

    Constants and other lower-rank values are broadcast into a new array;
    values already of the grid's shape are returned as they are.
    """
    values = np.asarray(values, dtype=float)
    return values if values.shape == x.shape else np.broadcast_to(values, x.shape).copy()


@dataclass(frozen=True, eq=False)
class BoundaryPatch:
    """Boundary arc x2 = gamma(x1) sampled in a rotated local frame.

    Arrays are indexed by the uniform x1 grid; `mu` holds the viscosity at
    each node and `orientation` records which side of the graph the fluid
    domain occupies.
    """

    frame_angle: float
    x1: np.ndarray
    gamma: np.ndarray
    gamma_prime: np.ndarray
    mu: np.ndarray
    orientation: str = "below"

    def __post_init__(self):
        for name in ("x1", "gamma", "gamma_prime", "mu"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "frame_angle", float(self.frame_angle))
        if self.x1.ndim != 1:
            raise ValueError("patch array x1 must be one-dimensional")
        n = self.x1.shape[0]
        if n < 2:
            raise ValueError("patch needs at least 2 nodes")
        for name in ("gamma", "gamma_prime", "mu"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"patch array {name} does not match the x1 grid")
        if self.orientation not in ORIENTATIONS:
            raise ValueError(f"orientation must be one of {ORIENTATIONS}")

    @property
    def n(self) -> int:
        return self.x1.shape[0]

    @property
    def h(self) -> float:
        return float(self.x1[1] - self.x1[0])

    @property
    def rotation(self) -> FrameRotation:
        return FrameRotation(self.frame_angle)

    def validate(self, max_slope: float | None = None) -> None:
        """Raise ValueError if a patch invariant is violated.

        The checks run in a fixed order, and the first one that fails names
        the fault: non-finite frame_angle, x1, gamma, gamma' or mu, in that
        order; mu <= 0; h <= 0; a grid that is not uniform; then, if
        `max_slope` is given, a bound that is not a positive finite number, and
        |gamma'| above it with no slack. Both conversions call it once, before
        they convert.
        """
        for name in ("frame_angle", "x1", "gamma", "gamma_prime", "mu"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"patch field {name} contains non-finite values")
        if not self.mu.min() > 0:
            raise ValueError("viscosity must be positive at every node")
        h = self.h
        if not h > 0:
            raise ValueError("grid spacing must be positive")
        # max |step - h| from two reductions per slice of steps: rounding is
        # monotone, so it is the larger of max(step) - h and h - min(step)
        tol = 1e-14 * h
        for i in range(0, self.n - 1, _STEP_SLICE):
            steps = np.diff(self.x1[i:i + _STEP_SLICE + 1])
            if steps.max() - h > tol or h - steps.min() > tol:
                raise ValueError("grid is not uniform")
        if max_slope is not None:  # exact, as the partitioner's test
            if np.max(np.abs(self.gamma_prime)) > positive_finite("max_slope", max_slope):
                raise ValueError(f"slope bound |gamma'| <= {max_slope} violated")

    def interior(self) -> "BoundaryPatch":
        """Sub-patch on the nodes where stencil-derived quantities live."""
        if self.n < 2 * MARGIN + 2:  # a BoundaryPatch needs 2 nodes
            raise ValueError("patch too short to restrict: needs at least 6 nodes")
        return BoundaryPatch(
            self.frame_angle,
            self.x1[MARGIN:-MARGIN],
            self.gamma[MARGIN:-MARGIN],
            self.gamma_prime[MARGIN:-MARGIN],
            self.mu[MARGIN:-MARGIN],
            self.orientation,
        )

    def nodes_global(self) -> np.ndarray:
        """Node positions in the global frame, shape (n, 2)."""
        return np.stack(self.rotation.rotate(self.x1, self.gamma), axis=-1)


def normal_at(gamma_prime, orientation: str = "below") -> np.ndarray:
    """Outward unit normal of the graph boundary.

    Returns (-gamma', 1)/theta when the domain is below the graph and its
    negation when above; the last axis of the result has length 2.
    """
    if orientation not in ORIENTATIONS:
        raise ValueError(f"orientation must be one of {ORIENTATIONS}")
    nu1, nu2 = _frame(np.asarray(gamma_prime, dtype=float), orientation)[2:]
    return np.stack([nu1, nu2], axis=-1)


def _frame(gamma_prime, orientation):
    """Unit tangent (c, c gamma') and outward normal s c (-gamma', 1), c = 1/theta.

    s = -1 on a domain-above patch, so the orientation flips signs alone; the
    normal shares one array with the tangent, which no caller writes to.
    """
    c = 1.0 / theta(gamma_prime)
    w = c * gamma_prime
    return (c, w, w, -c) if orientation == "above" else (c, w, -w, c)


@dataclass(frozen=True)
class ParametricCurve:
    """Plane curve given by vectorized position/velocity maps of t in [0, 1).

    A closed curve's callables must accept any real t and wrap
    periodically; "open" curves are only evaluated inside [0, 1].
    """

    position: Callable
    velocity: Callable
    kind: str = "analytic-closed-form"

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"kind must be one of {CURVE_KINDS}")

    @property
    def closed(self) -> bool:
        return self.kind != "open"


def circle(radius: float) -> ParametricCurve:
    """Counterclockwise circle of the given radius, centered at the origin."""
    radius = positive_finite("radius", radius)
    return _conic(radius, radius)


def ellipse(a: float, b: float) -> ParametricCurve:
    """Counterclockwise axis-aligned ellipse with semi-axes a and b."""
    return _conic(positive_finite("semi-axis a", a), positive_finite("semi-axis b", b))


def _conic(a, b) -> ParametricCurve:
    """(a cos 2 pi t, b sin 2 pi t) with its velocity; circle and ellipse check a, b."""
    two_pi = 2.0 * np.pi

    def position(t):
        w = two_pi * np.asarray(t, dtype=float)
        return a * np.cos(w), b * np.sin(w)

    def velocity(t):
        w = two_pi * np.asarray(t, dtype=float)
        return -two_pi * a * np.sin(w), two_pi * b * np.cos(w)

    return ParametricCurve(position, velocity)


def graph_curve(f: Callable, fprime: Callable, lo: float, hi: float) -> ParametricCurve:
    """Open arc x2 = f(x1) over [lo, hi], parametrized linearly in x1."""
    lo, hi = float(lo), float(hi)
    span = hi - lo  # not finite when lo or hi is not
    if not 0 < span < math.inf:
        raise ValueError(f"abscissa range [{lo!r}, {hi!r}] must be non-empty and finite")

    def position(t):
        x = lo + span * np.asarray(t, dtype=float)
        return x, np.asarray(f(x), dtype=float)

    def velocity(t):
        x = lo + span * np.asarray(t, dtype=float)
        return np.full_like(x, span), span * np.asarray(fprime(x), dtype=float)

    return ParametricCurve(position, velocity, kind="open")


def polynomial_graph(coeffs: Sequence[float], lo: float, hi: float) -> ParametricCurve:
    """Open polynomial graph with coefficients in increasing-degree order."""
    if not all(math.isfinite(c) for c in coeffs):
        raise ValueError("polynomial coefficients must be finite")
    poly = np.polynomial.Polynomial(list(coeffs))
    return graph_curve(poly, poly.deriv(), lo, hi)


def graph_patch(gamma, gamma_prime, lo: float, hi: float, n: int, *,
                mu=1.0, orientation: str = "below") -> BoundaryPatch:
    """Patch sampled directly from a slope-bounded graph, frame angle zero.

    `gamma` and `gamma_prime` may be callables of x1 or constants; `mu` may
    be a constant (a scalar or a full-length array) or a callable of the
    global coordinates. The callables run on node blocks (traces.blockwise):
    each must be pointwise and may run on several threads at once.
    """
    x, _ = uniform_grid(lo, hi, n)
    given = [x if callable(f) else on_grid(f, x) for f in (gamma, gamma_prime, mu)]

    def kernel(x, g, gp, m):
        g = on_grid(gamma(x), x) if callable(gamma) else g
        gp = on_grid(gamma_prime(x), x) if callable(gamma_prime) else gp
        return g, gp, on_grid(mu(x, g), x) if callable(mu) else m

    return BoundaryPatch(0.0, x, *blockwise(kernel, x, *given), orientation)


def partition_curve(curve: ParametricCurve, max_slope: float = 1.0,
                    overlap_fraction: float = 0.2, nodes_per_patch: int = 64, *,
                    mu=1.0) -> list[BoundaryPatch]:
    """Cover a curve with overlapping graph patches of bounded slope.

    Every emitted patch satisfies |gamma'| <= max_slope after rotation to
    its frame, consecutive patches overlap by at least overlap_fraction of
    their arc length (never less than 0.05, so 0 yields 5%), and the patch
    interiors cover the curve. A closed curve is "above" when its unwrapped
    tangent angle turns counterclockwise and "below" when it turns
    clockwise; open arcs are "below".

    Raises ValueError for invalid parameters, non-finite curve samples,
    irregular curves, curves too small to sample in floating point (where
    dt/ds = 1/|velocity| overflows), curves with corners, closed curves that
    fail the closure check or whose tangent does not turn exactly once, and a
    max_slope too small for the curve's turn between tangent samples.
    """
    max_slope = positive_finite("max_slope", max_slope)
    if not 0.0 <= overlap_fraction < 0.5:
        raise ValueError("overlap_fraction must lie in [0, 0.5)")
    if nodes_per_patch < 2 * MARGIN + 1:
        raise ValueError("nodes_per_patch must be at least 5")

    tt = np.linspace(0.0, 1.0, _SAMPLES + 1)
    with np.errstate(all="ignore"):  # an overflow is reported below, not warned
        x, y = (np.asarray(v, dtype=float) for v in curve.position(tt))
        vx, vy = (np.asarray(v, dtype=float) for v in curve.velocity(tt))
    if not all(np.isfinite(v).all() for v in (x, y, vx, vy)):
        raise ValueError("curve samples are not finite")
    speed = np.hypot(vx, vy)
    if np.min(speed) <= 1e-12 * np.max(speed):
        raise ValueError("curve is not regular: velocity vanishes at a sample node")
    extent = max(float(np.max(np.abs(x))), float(np.max(np.abs(y))))  # scale-relative, as above
    if math.isinf(1.0 / float(np.min(speed))):
        # arclength maps back to t through dt/ds = 1/speed, which overflows
        raise ValueError(f"curve of size {extent:.3g} is too small to sample in floating point")
    if curve.closed and math.hypot(x[0] - x[-1], y[0] - y[-1]) > 1e-12 * extent:
        raise ValueError("curve marked closed does not close up")

    phi = np.unwrap(np.arctan2(vy, vx))
    if np.max(np.abs(np.diff(phi))) > _CORNER_TOL:
        raise ValueError("corner detected: tangent direction jumps between adjacent samples")

    s = np.concatenate(([0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(tt))))
    arc_len = float(s[-1])

    cone = math.atan(max_slope)
    budget = 2.0 * _CONE_SAFETY * cone
    ovl = max(float(overlap_fraction), 0.05)

    # windows: (arc start, arc end, frame angle)
    if curve.closed:
        turn = float(phi[-1] - phi[0])
        if not math.pi < abs(turn) < 3.0 * math.pi:
            raise ValueError(f"closed curve is not simple: its tangent turns "
                             f"{round(turn / (2.0 * math.pi))} times, not once")
        # the interior lies left of a counterclockwise (left-turning) tangent
        orientation = "above" if turn > 0 else "below"
        s_ext = np.concatenate((s, s[1:] + arc_len))
        phi_ext = np.concatenate((phi, phi[1:] + turn))
        tt_ext = np.concatenate((tt, tt[1:] + 1.0))
        ends = _window_ends(phi_ext, budget, _SAMPLES + 1)
        lstar = float(np.min(s_ext[ends] - s_ext[:_SAMPLES + 1]))
        if lstar <= 0:
            raise ValueError(_TURNS_TOO_FAST)
        count = int(math.ceil(arc_len / ((1.0 - ovl) * lstar)))
        stride = arc_len / count
        length = stride / (1.0 - ovl)
        windows = []
        for k in range(count):
            sa, sb = k * stride, k * stride + length
            # from the last sample at or before sa to the second at or after sb
            ja = int(np.searchsorted(s_ext, sa, side="right")) - 1
            jb = int(np.searchsorted(s_ext, sb, side="left")) + 1
            window_phi = phi_ext[ja:jb + 1]
            windows.append((sa, sb, 0.5 * float(window_phi.max() + window_phi.min())))
    else:
        orientation = "below"
        s_ext, tt_ext = s, tt
        if float(np.max(np.abs(phi))) <= cone:
            windows = [(0.0, arc_len, 0.0)]
        else:
            windows = _greedy_open_windows(s, phi, budget, ovl)

    patches = []
    for sa, sb, frame in windows:
        t_a = float(np.interp(sa, s_ext, tt_ext))
        t_b = float(np.interp(sb, s_ext, tt_ext))
        patches.append(_build_patch(curve, frame, t_a, t_b, nodes_per_patch, mu,
                                    orientation, max_slope))
    return patches


def _window_ends(phi, budget, n_starts):
    """Per start j < n_starts, the last sample k of the longest window from j.

    That is the largest k with max(phi[j..k]) - min(phi[j..k]) <= budget, a
    test that only fails more as k grows. No arc-length cap is needed: on a
    closed curve, samples one turn apart differ in angle by more than any budget.
    Every start doubles its window from one sample while the window fits,
    reading the extremes of w samples from a table per level, and where a
    window of 2w samples fails it bisects k in [j + w - 1, j + 2w - 2]: the
    extremes of j..k are those of two overlapping w-sample windows, j.. and
    ..k. Only the tables of w and 2w samples are alive at once, O(n) floats.
    """
    n = phi.shape[0]
    out = np.empty(n_starts, dtype=np.intp)
    j = np.arange(n_starts)  # the starts whose window of w samples fits
    hi = lo = phi  # hi[i], lo[i]: max and min of phi[i:i + w]
    w = 1
    while j.size:
        grow = j + (2 * w - 1) < n
        if grow.any():
            hi2, lo2 = np.maximum(hi[:-w], hi[w:]), np.minimum(lo[:-w], lo[w:])
            jg = j[grow]
            grow[grow] = hi2[jg] - lo2[jg] <= budget
        stop = j[~grow]
        a, b = stop + (w - 1), np.minimum(stop + (2 * w - 1), n)  # k = a fits, k = b does not
        hs, ls = hi[stop], lo[stop]
        while (b - a > 1).any():
            k = (a + b) // 2
            r = k - (w - 1)
            fits = np.maximum(hs, hi[r]) - np.minimum(ls, lo[r]) <= budget
            a, b = np.where(fits, k, a), np.where(fits, b, k)
        out[stop] = a
        j = j[grow]
        if j.size:
            hi, lo = hi2, lo2
        w *= 2
    return out


def _greedy_open_windows(s, phi, budget, ovl):
    """Forward cover of an open arc by maximal angle-feasible windows."""
    last = s.shape[0] - 1
    ends = _window_ends(phi, budget, last + 1)
    windows = []
    a_idx = 0
    while True:
        k = int(ends[a_idx])
        if k == a_idx:
            raise ValueError(_TURNS_TOO_FAST)
        window_phi = phi[a_idx:k + 1]
        windows.append((float(s[a_idx]), float(s[k]),
                        0.5 * float(window_phi.max() + window_phi.min())))
        if k == last:
            return windows
        a_next = s[k] - ovl * (s[k] - s[a_idx])
        nxt = int(np.searchsorted(s, a_next, side="right")) - 1
        a_idx = min(max(nxt, a_idx + 1), last - 1)


def _build_patch(curve, frame, t_a, t_b, n_nodes, mu, orientation, max_slope):
    rotation = FrameRotation(frame)

    def local(fn):
        """t -> the patch-frame components of the global-frame pair fn(t)."""
        return lambda t: rotation.inverse().rotate(*(np.asarray(v, dtype=float) for v in fn(t)))

    position, velocity = local(curve.position), local(curve.velocity)
    x1, _ = uniform_grid(float(position(t_a)[0]), float(position(t_b)[0]), n_nodes)
    t_nodes = _invert_monotone(lambda t: position(t)[0], lambda t: velocity(t)[0], t_a, t_b, x1)
    _, gamma = position(t_nodes)
    wx, wy = velocity(t_nodes)
    gp = wy / wx

    peak = float(np.max(np.abs(gp)))
    if peak > max_slope:
        raise ValueError(f"max_slope is too small for this curve: "
                         f"a patch reaches |gamma'| = {peak:.3g}")
    # a curve not finite at a node alone slips past the table's samples
    if not (np.isfinite(gamma).all() and np.isfinite(gp).all()):
        raise ValueError("curve samples are not finite")

    mu_vals = on_grid(mu(*rotation.rotate(x1, gamma)) if callable(mu) else mu, x1)
    return BoundaryPatch(frame, x1, gamma, gp, mu_vals, orientation)


def _invert_monotone(fn, dfn, t_lo, t_hi, targets):
    """Solve fn(t) = target for every target; fn must increase on [t_lo, t_hi].

    The targets must ascend, as a uniform grid does. One pass streams a
    dense table of fn at max(1024, 8 n) times, those of np.linspace(t_lo,
    t_hi), in blocks of traces._BLOCK_NODES intervals, each block's last
    sample opening the next. A block is refused at once if a sample is not
    finite; while the table still increases, each block brackets the
    targets it covers (none below the table) and Newton steps with slope
    dfn refine them before the block is dropped. A node whose step would
    leave its bracket, or would not halve the previous step, is bisected
    instead. A node is done once the move it makes is below 4 eps max(1, |t|):
    a Newton step at roundoff, or a bracket that has shrunk to that width
    where fn is noisy. The move is still taken, and the result is whichever
    of it and its two neighbouring floats fits best. After the pass, raises
    ValueError, in this order, for a table that does not increase, targets
    outside it and nodes not converged after _INVERT_MAX_STEPS steps.
    """
    g = np.asarray(targets, dtype=float)

    def solve(g, lo, hi, f_lo, f_hi):
        """The block's nodes, and how many of them did not converge."""
        t = lo + (hi - lo) * ((g - f_lo) / (f_hi - f_lo))  # the start point interpolates linearly
        last_step = hi - lo
        done = np.zeros(g.shape, dtype=bool)
        for _ in range(_INVERT_MAX_STEPS):
            f = np.asarray(fn(t), dtype=float) - g
            lo = np.where(f < 0, t, lo)
            hi = np.where(f > 0, t, hi)
            step = f / np.asarray(dfn(t), dtype=float)
            newton = t - step
            tol = 4.0 * _EPS * np.maximum(1.0, np.abs(t))
            keep = (np.abs(step) <= tol) | ((newton > lo) & (newton < hi)
                                            & (np.abs(step) <= 0.5 * last_step))
            t_next = np.where(keep, newton, 0.5 * (lo + hi))
            last_step = np.abs(t_next - t)
            converged = last_step <= tol
            t = np.where(done, t, t_next)
            done |= converged
            if done.all():
                # the last step rests on a residual that carries roundoff, so it
                # can land one float off the best fit; keep the best neighbour
                near = np.stack([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)])
                miss = np.abs(np.asarray(fn(near.ravel()), dtype=float).reshape(near.shape) - g)
                return np.take_along_axis(near, np.argmin(miss, axis=0)[None], axis=0)[0], 0
        return t, np.count_nonzero(~done)

    t = np.empty(g.shape)
    num = max(1024, 8 * g.size)
    dt = (t_hi - t_lo) / (num - 1)  # the sample times are np.linspace's, bit for bit
    increasing, missed = True, 0
    for i in range(0, num - 1, traces._BLOCK_NODES):
        tb = np.arange(i, min(i + traces._BLOCK_NODES, num - 1) + 1, dtype=float) * dt + t_lo
        if i + tb.size == num:
            tb[-1] = t_hi
        fb = np.asarray(fn(tb), dtype=float)
        if not np.isfinite(fb).all():
            raise ValueError("curve samples are not finite")
        # Newton never runs past a tie, where its start point would divide by zero
        increasing = increasing and not np.any(np.diff(fb) <= 0)
        if not i:  # g[:j] lie below the table and never reach Newton
            f_first, j = fb[0], int(np.searchsorted(g, fb[0]))
        if increasing:
            # fb[k - 1] < g <= fb[k], as a search of the whole table places g
            end = int(np.searchsorted(g, fb[-1], side="right"))
            if end > j:
                k = np.clip(np.searchsorted(fb, g[j:end]), 1, fb.size - 1)
                t[j:end], block_missed = solve(g[j:end], tb[k - 1], tb[k], fb[k - 1], fb[k])
                missed += block_missed
            j = end
    if not increasing:
        raise ValueError("local abscissa is not monotone over the patch window")
    outside = int(np.searchsorted(g, f_first)) + g.size - j  # below the table, then above it
    if outside:
        raise ValueError(f"{outside} of {g.size} node abscissae fall outside the "
                         "patch window's local abscissa range")
    if missed:
        raise ValueError(f"curve inversion did not converge at {missed} "
                         f"of {g.size} nodes within {_INVERT_MAX_STEPS} steps")
    return t
