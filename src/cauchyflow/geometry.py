"""Smooth plane curves and their decomposition into rotated graph patches.

A patch represents a boundary arc as x2 = gamma(x1) in a local frame
obtained by rotating the global frame, sampled on a uniform x1 grid. Each
grid carries two margin nodes per end so that 5-point interior stencils
apply everywhere a converted quantity is reported. Grids are snapped onto
a dyadic raster, which makes consecutive node differences bitwise equal to
the stored spacing.

Patch nodes are found by inverting the curve's local abscissa x(t) for the
grid targets: the cover's own samples of the patch window bracket them, and
a vectorized Newton iteration (slope from the curve velocity, bisection when
a step leaves its bracket) refines them to the floats that fit best.
Every curve then gives gamma and gamma' at a node from its own position and
velocity there, so no patch differentiates gamma numerically.

Conventions:
  * orientation "below" means the fluid domain lies locally under the
    graph, so the outward normal is (-gamma', 1)/theta; "above" negates it.
  * FrameRotation(a).rotate(v1, v2) maps local-frame components to the global
    frame, .inverse().rotate back; every patch changes frame through it.
  * a closed curve's tangent must turn exactly once; when it turns
    counterclockwise the interior sits on the left of the tangent, which in
    a tangent-aligned local frame is the "above" side. Open arcs are
    partitioned as "below"; graph_patch takes either orientation.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .traces import MARGIN, VectorTrace, blockwise

ORIENTATIONS = ("below", "above")
CURVE_KINDS = ("analytic-closed-form", "open")

# fraction of the slope cone the partitioner actually budgets per patch,
# leaving headroom for between-sample tangent excursions
_CONE_SAFETY = 0.95
_SAMPLES = 4096  # the partitioner's samples of a curve number _SAMPLES + 1
_CORNER_TOL = 0.35  # a larger tangent-angle step between samples is a corner
_TOO_SHORT = ("max_slope or nodes_per_patch is too small for this curve: its windows are too "
              "short to share the overlap and the patches' stencil margins")

_EPS = float(np.finfo(float).eps)
# Newton from a bracket between two cover samples converges in a few steps; the cap leaves room
# for the bisections a noisy or flat abscissa forces (a bracket of 1/4096 halves to roundoff in 40)
_INVERT_MAX_STEPS = 100
# nodes Newton refines at a time: with 2^14, a 2^15-node partition peaks at 4.6 MiB, not 2.8
_SOLVE_NODES = 1 << 11
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
    h * 2**-32, coarser where the grid lies beyond about 2**19 h from the
    origin) so every node is an exact integer multiple of the raster;
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
    scale = math.ldexp(1.0, max(e - 33, math.frexp(max(abs(lo), abs(hi)))[1] - 52))
    if scale == 0:  # a spacing below about 2**-1041 has no raster step
        raise ValueError("grid span too small for the requested node count")
    start = math.ceil(lo / scale) * scale
    h = math.floor((hi - start) / scale) // (n - 1) * scale  # a subnormal quotient would round up
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

    Open arcs and closed curves get one greedy cover from t = 0 (_greedy_windows) over samples
    spaced by arc length plus tangent turn: every patch has |gamma'| <= max_slope in its frame,
    consecutive patches (a closed curve's last and first too) share at least overlap_fraction of
    the earlier one's arc (never less than 0.05, so 0 yields 5%), and the patch interiors cover
    the curve. A closed curve is "above" when its unwrapped tangent angle turns counterclockwise
    and "below" when it turns clockwise; open arcs are "below".

    Raises ValueError for invalid parameters, non-finite curve samples,
    irregular curves, curves too small to sample in floating point (where
    dt/ds = 1/|velocity| overflows), curves with corners, closed curves that
    fail the closure check or whose tangent does not turn exactly once, and a
    max_slope too small for the curve's turn between tangent samples or, with
    nodes_per_patch, for windows that share the overlap and the margins. Each
    patch is returned only once BoundaryPatch.validate(max_slope) passes, whose
    message names the fault: mu not positive and finite at every node, a grid
    that is not uniform, or |gamma'| past the bound between the samples.
    """
    max_slope = positive_finite("max_slope", max_slope)
    if not 0.0 <= overlap_fraction < 0.5:
        raise ValueError("overlap_fraction must lie in [0, 0.5)")
    if nodes_per_patch < 2 * MARGIN + 1:
        raise ValueError("nodes_per_patch must be at least 5")

    # the curve at uniform t, then again at equal steps of s / L + turned angle / total turn
    # (of s / L where it does not turn), so a tight turn holds as many samples as a long run
    tt = np.linspace(0.0, 1.0, _SAMPLES + 1)
    _, phi, s = _sample_curve(curve, tt)
    turned = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(phi)))))
    u = s / s[-1] + (turned / turned[-1] if turned[-1] > 0 else 0.0)
    tt = np.interp(np.linspace(0.0, u[-1], _SAMPLES + 1), u, tt)
    z, phi, s = _sample_curve(curve, tt)

    cone = math.atan(max_slope)
    budget = 2.0 * _CONE_SAFETY * cone
    ovl = max(float(overlap_fraction), 0.05)

    # windows: (start sample, end sample, frame angle)
    if curve.closed:
        turn = float(phi[-1] - phi[0])
        if not math.pi < abs(turn) < 3.0 * math.pi:
            raise ValueError(f"closed curve is not simple: its tangent turns "
                             f"{round(turn / (2.0 * math.pi))} times, not once")
        # the interior lies left of a counterclockwise (left-turning) tangent
        orientation = "above" if turn > 0 else "below"
        # the arc runs on one turn past its seam: sample j + _SAMPLES is sample j one turn on
        s, phi, tt = (np.concatenate((v, v[1:] + d)) for v, d in ((s, s[-1]), (phi, turn), (tt, 1.0)))
        windows = _greedy_windows(s, z[:-1], phi, budget, ovl, nodes_per_patch)
    else:
        orientation = "below"
        if float(np.max(np.abs(phi))) <= cone:
            windows = [(0, _SAMPLES, 0.0)]
        else:
            windows = _greedy_windows(s, z, phi, budget, ovl, nodes_per_patch)

    return [_build_patch(curve, frame, tt[a:k + 1], nodes_per_patch, mu, orientation, max_slope)
            for a, k, frame in windows]


def _sample_curve(curve, tt):
    """The curve at times tt as (x + iy, unwrapped tangent angle, arc length from tt[0]); raises
    ValueError where a sample is not finite or regular, the curve is too small to sample in
    floating point or, marked closed, does not close up, or the tangent turns past _CORNER_TOL."""
    with np.errstate(all="ignore"):  # an overflow is reported below, not warned
        x, y = (np.asarray(v, dtype=float) for v in curve.position(tt))
        vx, vy = (np.asarray(v, dtype=float) for v in curve.velocity(tt))
    if not all(np.isfinite(v).all() for v in (x, y, vx, vy)):
        raise ValueError("curve samples are not finite")
    speed = np.hypot(vx, vy)
    if np.min(speed) <= 1e-12 * np.max(speed):
        raise ValueError("curve is not regular: velocity vanishes at a sample node")
    extent = max(float(np.max(np.abs(x))), float(np.max(np.abs(y))))  # scale-relative, as above
    if math.isinf(1.0 / float(np.min(speed))):  # dt/ds = 1 / speed overflows
        raise ValueError(f"curve of size {extent:.3g} is too small to sample in floating point")
    if curve.closed and math.hypot(x[0] - x[-1], y[0] - y[-1]) > 1e-12 * extent:
        raise ValueError("curve marked closed does not close up")
    phi = np.unwrap(np.arctan2(vy, vx))
    if np.max(np.abs(np.diff(phi))) > _CORNER_TOL:
        raise ValueError("corner detected: tangent direction jumps between adjacent samples")
    s = np.concatenate(([0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(tt))))
    return x + 1j * y, phi, s


def _window_end(phi, budget, j):
    """The last sample k of the longest window from j: the largest k with
    max(phi[j..k]) - min(phi[j..k]) <= budget, a spread that only grows with k.

    The search stops one turn on, at k = j + _SAMPLES. That bound never binds: an open
    arc has _SAMPLES + 1 samples, and on a closed curve's arc extended by one turn,
    samples one turn apart differ in angle by more than pi, above every budget.
    """
    rest = phi[j:j + _SAMPLES + 1]
    spread = np.maximum.accumulate(rest) - np.minimum.accumulate(rest)
    return j + int(np.searchsorted(spread, budget, side="right")) - 1


def _greedy_windows(s, z, phi, budget, ovl, nodes):
    """Forward cover by windows from sample 0 until one reaches the last sample or, on a closed
    curve's arc extended by one turn (positions z = x + iy, one turn's, read periodically), an
    earlier one can follow the last one turn on; the windows before that one are dropped.

    The first window is the longest from sample 0. Each next one starts, a sample past the earlier
    start at least, at the last sample that shares `ovl` of the earlier one's arc and whose longest
    window's patch stencil interior (all but MARGIN of `nodes` nodes an end, read at the samples)
    meets the earlier one's, and ends at the last sample where its own still does (by bisection).
    """
    last = s.shape[0] - 1
    if np.max(np.abs(np.diff(phi))) > budget:
        raise ValueError("max_slope is too small for this curve: its tangent turns past "
                         "the slope cone between adjacent samples")

    @functools.cache
    def end(j):
        """The last sample of the longest window from j; a closed curve's repeat one turn on."""
        return _window_end(phi, budget, j % _SAMPLES) + j - j % _SAMPLES

    @functools.cache
    def window(j, k):
        """The window j..k as (start sample, end sample, frame angle), and its interior's ends."""
        frame = 0.5 * float(phi[j:k + 1].max() + phi[j:k + 1].min())
        x1 = (z.take(np.arange(j, k + 1), mode="wrap") * np.exp(-1j * frame)).real  # increasing
        d = MARGIN / (nodes - 1) * (x1[-1] - x1[0])
        return ((j, k, frame), j + int(np.searchsorted(x1, x1[0] + d)),
                j + int(np.searchsorted(x1, x1[-1] - d, side="right")) - 1)

    def last_fit(lo, hi, fits):
        """hi if it fits, else by bisection an x in (lo, hi) that fits, or lo."""
        if hi > lo and fits(hi):
            return hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fits(mid) else (lo, mid)
        return lo

    a, k = 0, end(0)
    win, first, inner = window(a, k)
    windows, starts = [win], [(a, first)]
    while k != last:
        nxt = int(np.searchsorted(s, s[k] - ovl * (s[k] - s[a]), side="right")) - 1
        for i, (ai, fi) in enumerate(starts):  # ascending: none on an open arc
            if ai + _SAMPLES > nxt:
                break
            if ai + _SAMPLES > a and fi + _SAMPLES <= inner:
                return windows[i:]
        if nxt <= a:
            raise ValueError(_TOO_SHORT)
        a = max(a + 1, last_fit(a, nxt, lambda j: window(j, end(j))[1] <= inner))
        k = last_fit(a, end(a), lambda k: window(a, k)[1] <= inner)
        win, first, reach = window(a, k)
        if k == a or reach <= inner:
            raise ValueError(_TOO_SHORT)
        windows.append(win)
        starts.append((a, first))
        inner = reach
    return windows


def _build_patch(curve, frame, tb, n_nodes, mu, orientation, max_slope):
    rotation = FrameRotation(frame)

    def local(fn):
        """t -> the patch-frame components of the global-frame pair fn(t)."""
        return lambda t: rotation.inverse().rotate(*(np.asarray(v, dtype=float) for v in fn(t)))

    position, velocity = local(curve.position), local(curve.velocity)
    fb = position(tb)[0]
    x1, _ = uniform_grid(fb[0], fb[-1], n_nodes)
    t_nodes = _invert_monotone(lambda t: position(t)[0], lambda t: velocity(t)[0], tb, fb, x1)
    _, gamma = position(t_nodes)
    wx, wy = velocity(t_nodes)
    gp = wy / wx
    # a curve not finite at a node alone slips past the cover's samples; mu never sees such a node
    if not (np.isfinite(gamma).all() and np.isfinite(gp).all()):
        raise ValueError("curve samples are not finite")

    mu_vals = on_grid(mu(*rotation.rotate(x1, gamma)) if callable(mu) else mu, x1)
    patch = BoundaryPatch(frame, x1, gamma, gp, mu_vals, orientation)
    patch.validate(max_slope)
    return patch


def _invert_monotone(fn, dfn, tb, fb, targets):
    """Solve fn(t) = target for every target, given the table fb = fn(tb) at ascending times tb.

    Raises ValueError if fb does not increase (a NaN counts as a break), then for targets outside
    [fb[0], fb[-1]]. Newton steps with slope dfn refine _SOLVE_NODES targets at a time from their
    brackets in the table, bisecting a node whose step would leave its bracket or not halve the
    last one, and raise for nodes not converged in _INVERT_MAX_STEPS steps. A node is done once its
    Newton step or its move is at most 4 eps max(1, |t|): a step at roundoff, or a bracket shrunk
    to that width where fn is noisy. The move is still taken, and the result is whichever of it
    and its two neighbouring floats fits best.
    """
    targets = np.asarray(targets, dtype=float)
    # Newton never runs past a tie, where its start point would divide by zero
    if not np.all(np.diff(fb) > 0):
        raise ValueError("local abscissa is not monotone over the patch window")
    outside = np.count_nonzero(~((fb[0] <= targets) & (targets <= fb[-1])))  # NaN too
    if outside:
        raise ValueError(f"{outside} of {targets.size} node abscissae fall outside the "
                         "patch window's local abscissa range")
    nodes = np.empty(targets.size)
    for i in range(0, targets.size, _SOLVE_NODES):
        g = targets[i:i + _SOLVE_NODES]
        k = np.clip(np.searchsorted(fb, g), 1, fb.size - 1)  # fb[k - 1] < g <= fb[k]
        lo, hi = tb[k - 1], tb[k]
        t = lo + (hi - lo) * ((g - fb[k - 1]) / (fb[k] - fb[k - 1]))  # linear start points
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
            # a step below tol can round to a move above it, and t would cycle between two floats
            converged = (last_step <= tol) | (np.abs(step) <= tol)
            t = np.where(done, t, t_next)
            done |= converged
            if done.all():
                break
        else:
            raise ValueError(f"curve inversion did not converge at {np.count_nonzero(~done)} "
                             f"of {g.size} nodes within {_INVERT_MAX_STEPS} steps")
        # the last step rests on a residual that carries roundoff, so it can
        # land one float off the best fit; keep the best neighbour
        near = np.stack([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)])
        miss = np.abs(np.asarray(fn(near.ravel()), dtype=float).reshape(near.shape) - g)
        nodes[i:i + _SOLVE_NODES] = np.take_along_axis(near, miss.argmin(axis=0)[None], axis=0)[0]
    return nodes
