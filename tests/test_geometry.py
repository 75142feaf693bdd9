import math
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cauchyflow import (BoundaryPatch, FrameRotation, ParametricCurve,
                        VectorTrace, circle, ellipse, geometry, graph_patch,
                        normal_at, partition_curve, polynomial_graph,
                        rotate_vector_trace, theta, uniform_grid)
from cauchyflow import traces
from helpers import greedy_open_windows, rotate_rows, rotation_matrix, scan_window_ends

finite_slope = st.floats(-20, 20, allow_nan=False)
EPS = np.finfo(float).eps


def test_normal_flat_below():
    assert np.allclose(normal_at(0.0, "below"), [0.0, 1.0], atol=0)


def test_normal_unit_slope_matches_closed_form():
    nu = normal_at(1.0, "below")
    assert np.max(np.abs(nu - np.array([-1.0, 1.0]) / np.sqrt(2.0))) <= 1e-15


def test_normal_flat_above():
    assert np.allclose(normal_at(0.0, "above"), [0.0, -1.0], atol=0)


@given(gp=finite_slope)
def test_normal_is_unit_and_orthogonal_to_tangent(gp):
    nu = normal_at(gp, "below")
    assert abs(np.hypot(nu[0], nu[1]) - 1.0) <= 1e-14
    tau = np.array([1.0, gp]) / theta(gp)
    assert abs(nu @ tau) <= 1e-14
    assert np.allclose(normal_at(gp, "above"), -nu, atol=0)


@given(angle=st.floats(-10, 10))
def test_rotation_is_orthogonal(angle):
    r = rotation_matrix(FrameRotation(angle))
    assert np.max(np.abs(r.T @ r - np.eye(2))) <= 1e-14
    assert abs(np.linalg.det(r) - 1.0) <= 1e-14


def test_rotate_vector_trace_examples():
    v = VectorTrace.from_arrays([1.0], [0.0], 1.0)
    out = rotate_vector_trace(v, FrameRotation(np.pi / 2))
    assert np.max(np.abs(out.stacked() - [[0.0, 1.0]])) <= 1e-15

    w = VectorTrace.from_arrays([3.0], [4.0], 1.0)
    out = rotate_vector_trace(w, FrameRotation(np.pi))
    assert np.max(np.abs(out.stacked() - [[-3.0, -4.0]])) <= 1e-14
    assert abs(np.hypot(*out.stacked()[0]) - 5.0) <= 1e-14

    same = rotate_vector_trace(w, FrameRotation(0.0))
    assert np.array_equal(same.stacked(), w.stacked())


@given(angle=st.floats(-10, 10), seed=st.integers(0, 2**32 - 1))
def test_rotation_round_trip(angle, seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-5, 5, (16, 2))
    rot = FrameRotation(angle)
    trace = VectorTrace.from_arrays(v[:, 0], v[:, 1], 1.0)
    back = rotate_vector_trace(rotate_vector_trace(trace, rot), rot.inverse()).stacked()
    assert np.max(np.abs(back - v)) <= 1e-13


@given(angle=st.floats(-10, 10), seed=st.integers(0, 2**32 - 1))
def test_rotate_agrees_with_apply_and_matrix(angle, seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-5, 5, (16, 2))
    rot = FrameRotation(angle)
    out = np.stack(rot.rotate(v[:, 0], v[:, 1]), axis=-1)
    assert np.array_equal(out, rotate_rows(rot, v))
    tol = 2 * EPS * np.max(np.abs(v))
    assert np.max(np.abs(out - v @ rotation_matrix(rot).T)) <= tol
    back = np.stack(rot.inverse().rotate(out[:, 0], out[:, 1]), axis=-1)
    assert np.max(np.abs(back - v)) <= tol


def test_uniform_grid_spacing_is_bitwise_exact():
    for lo, hi, n in [(-1.0, 1.0, 68), (0.37, 5.11, 257), (-3.2, -1.9, 17)]:
        x, h = uniform_grid(lo, hi, n)
        assert x.shape == (n,)
        assert np.all(np.diff(x) == h)
        assert x[0] >= lo and x[-1] <= hi
        # the snap stays within a tiny fraction of one spacing
        assert x[0] - lo <= 1e-8 * h and hi - x[-1] <= 1e-8 * h + h


def grid_ends(mantissa, exponent, offset, n):
    """(lo, hi) of a span of n - 1 steps of mantissa 2**exponent, from offset steps off the origin."""
    want = math.ldexp(mantissa, exponent)
    return offset * want, (offset + n - 1) * want


# subnormal spacings from 2**-1042 up, where the raster step is 2**-1074 and
# more: a spacing rounded before the raster floor would overshoot hi
@given(mantissa=st.floats(1, 2),
       exponent=st.one_of(st.integers(-300, 300), st.integers(-1042, -1023)),
       n=st.integers(2, 4096), offset=st.floats(-2.0**19 + 4096, 2.0**19 - 4096))
def test_uniform_grid_near_the_origin_keeps_its_raster(mantissa, exponent, n, offset):
    # within 2**19 h of the origin the raster is h 2**-32, set by the spacing
    # alone as below, so such a grid keeps these nodes bit for bit
    lo, hi = grid_ends(mantissa, exponent, offset, n)
    scale = math.ldexp(1.0, math.frexp((hi - lo) / (n - 1))[1] - 33)
    start = math.ceil(lo / scale) * scale
    h = math.floor((hi - start) / scale) // (n - 1) * scale
    assume(max(abs(lo), abs(hi)) <= 2.0**19 * h)
    x, got_h = uniform_grid(lo, hi, n)
    assert got_h == h
    assert np.array_equal(x, start + h * np.arange(n))
    assert lo <= x[0] and x[-1] <= hi


@given(mantissa=st.floats(1, 2), exponent=st.integers(-300, 300), n=st.integers(2, 4096),
       far=st.integers(19, 48), sign=st.sampled_from([-1.0, 1.0]), frac=st.floats(0.5, 1))
def test_uniform_grid_far_from_the_origin_steps_by_h_exactly(mantissa, exponent, n, far,
                                                             sign, frac):
    lo, hi = grid_ends(mantissa, exponent, sign * frac * 2.0**far, n)
    x, h = uniform_grid(lo, hi, n)
    assert h > 0 and np.all(np.diff(x) == h)
    assert lo <= x[0] and x[-1] <= hi


def test_graph_patch_validates():
    p = graph_patch(lambda x: 0.3 * np.sin(x), lambda x: 0.3 * np.cos(x), -1, 1, 68)
    p.validate(max_slope=1.0)
    assert p.n == 68 and p.orientation == "below"
    assert p.interior().n == 64


def test_patch_rejects_bad_mu():
    p = graph_patch(0.0, 0.0, -1, 1, 16)
    broken = BoundaryPatch(p.frame_angle, p.x1, p.gamma, p.gamma_prime,
                           np.where(np.arange(16) == 7, 0.0, 1.0), p.orientation)
    with pytest.raises(ValueError):
        broken.validate()


def test_patch_rejects_nonuniform_grid():
    x = np.array([0.0, 0.1, 0.2, 0.31, 0.4])
    p = BoundaryPatch(0.0, x, np.zeros(5), np.zeros(5), np.ones(5))
    with pytest.raises(ValueError):
        p.validate()


@pytest.mark.parametrize("step", ["last slice", "last step of a slice", "first step of a slice"])
def test_validate_finds_one_uneven_step_in_any_slice(step):
    # validate differences the grid a slice of steps at a time; adjacent
    # slices share a node, so every step lies in one
    size = geometry._STEP_SLICE
    x, h = uniform_grid(0.0, 1.0, 2 * size + 100)
    k = {"last slice": x.size - 1, "last step of a slice": size, "first step of a slice": size + 1}[step]
    uneven = x.copy()
    uneven[k:] += h  # exact on the grid's raster, so step k - 1 alone is 2 h
    ones = np.ones(x.size)
    BoundaryPatch(0.0, x, 0 * ones, 0 * ones, ones).validate()
    with pytest.raises(ValueError, match="^grid is not uniform$"):
        BoundaryPatch(0.0, uneven, 0 * ones, 0 * ones, ones).validate()


def test_theta_is_within_one_ulp_of_hypot():
    slopes = np.geomspace(1e-320, 1e153, 20001)
    for gp in (slopes, -slopes):
        th, ref = theta(gp), np.hypot(1.0, gp)
        assert np.max(np.abs(th - ref) / np.spacing(ref)) <= 1.0
    # where the square overflows theta is hypot's, finite up to the float max
    huge = np.array([1e154, 1e300, 1.7e308, -1.7e308, 2.0])
    assert np.array_equal(theta(huge), np.hypot(1.0, huge))
    assert np.isfinite(theta(huge)).all()


def test_partition_circle_patch_count_and_slopes():
    patches = partition_curve(circle(1.0), max_slope=1.0, overlap_fraction=0.2,
                              nodes_per_patch=64)
    assert len(patches) >= 4
    for p in patches:
        assert np.max(np.abs(p.gamma_prime)) <= 1.0 + 1e-10
        assert p.orientation == "above"  # counterclockwise traversal
        p.validate(max_slope=1.0)


def reversed_in_t(curve):
    """The same closed curve traversed in the opposite sense."""
    return ParametricCurve(lambda t: curve.position(-np.asarray(t, dtype=float)),
                           lambda t: tuple(-v for v in curve.velocity(-np.asarray(t, dtype=float))),
                           kind=curve.kind)


def test_partition_clockwise_circle_is_below():
    patches = partition_curve(reversed_in_t(circle(1.0)), nodes_per_patch=32)
    assert all(p.orientation == "below" for p in patches)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", [3e-309, 1e-200, 1e-13, 1e-3, 1.0, 1e200, 1e300], ids=str)
def test_partition_orientation_at_any_scale(radius):
    ccw = circle(radius)
    assert {p.orientation for p in partition_curve(ccw, nodes_per_patch=16)} == {"above"}
    cw = reversed_in_t(ccw)
    assert {p.orientation for p in partition_curve(cw, nodes_per_patch=16)} == {"below"}


def circle_traversed_twice(t):
    """Unit circle run round twice as t goes over [0, 1): position and velocity."""
    a = 4 * np.pi * np.asarray(t, dtype=float)
    return (np.cos(a), np.sin(a)), (-4 * np.pi * np.sin(a), 4 * np.pi * np.cos(a))


def figure_eight(t):
    """x = cos 2 pi t, y = sin 2 pi t cos 2 pi t: regular, its tangent turns 0 times."""
    a = 2 * np.pi * np.asarray(t, dtype=float)
    return (np.cos(a), 0.5 * np.sin(2 * a)), (-2 * np.pi * np.sin(a), 2 * np.pi * np.cos(2 * a))


@pytest.mark.parametrize("shape, turns", [(circle_traversed_twice, 2), (figure_eight, 0)])
def test_partition_rejects_closed_curve_not_turning_once(shape, turns):
    curve = ParametricCurve(lambda t: shape(t)[0], lambda t: shape(t)[1])
    with pytest.raises(ValueError, match=f"tangent turns {turns} times, not once"):
        partition_curve(curve, nodes_per_patch=16)
    with pytest.raises(ValueError, match=f"tangent turns {-turns} times, not once"):
        partition_curve(reversed_in_t(curve), nodes_per_patch=16)


def test_partition_ellipse_slope_audit():
    patches = partition_curve(ellipse(2.0, 1.0), max_slope=1.0, nodes_per_patch=64)
    assert len(patches) >= 4
    for p in patches:
        assert np.max(np.abs(p.gamma_prime)) <= 1.0 + 1e-10


def test_partition_bounded_graph_arc_single_patch():
    arc = polynomial_graph([0.0, 0.25, 0.1], -1.0, 1.0)
    patches = partition_curve(arc, max_slope=1.0, nodes_per_patch=32)
    assert len(patches) == 1
    assert patches[0].frame_angle == 0.0
    assert patches[0].n == 32


def test_partition_tilted_line_one_rotated_patch():
    # the whole arc fits the slope budget, but not the unrotated cone: one
    # window from 0 to the arc length, framed at the tangent's midrange
    line = polynomial_graph([0.0, 2.0], -1.0, 1.0)
    (patch,) = partition_curve(line, max_slope=1.0, nodes_per_patch=32)
    assert abs(patch.frame_angle - np.arctan(2.0)) <= EPS
    assert np.max(np.abs(patch.gamma_prime)) <= 1e-12
    tt = np.linspace(0.0, 1.0, 4097)
    phi = np.unwrap(np.arctan2(*line.velocity(tt)[::-1]))
    frame = 0.5 * float(phi.max() + phi.min())
    want = geometry._build_patch(line, frame, tt, 32, 1.0, "below", 1.0)
    assert patch.frame_angle == want.frame_angle and patch.orientation == want.orientation
    for name in ("x1", "gamma", "gamma_prime", "mu"):
        assert np.array_equal(getattr(patch, name), getattr(want, name)), name


def brute_window_ends(s, phi, budget, n_starts, cap=np.inf):
    """Per start j, the largest k with span(phi[j..k]) <= budget and s[k] - s[j] <= cap."""
    return [max(k for k in range(j, len(s))
                if phi[j:k + 1].max() - phi[j:k + 1].min() <= budget and s[k] - s[j] <= cap)
            for j in range(n_starts)]


def extended_by_one_turn(s, phi, turn):
    """partition_curve's closed-curve arc: the samples, then those after the first one turn on."""
    return np.concatenate((s, s[1:] + s[-1])), np.concatenate((phi, phi[1:] + turn))


@given(phi=st.lists(st.floats(-3, 3), min_size=2, max_size=24),
       steps=st.lists(st.floats(1e-3, 1), min_size=23, max_size=23),
       budget=st.floats(0, 3), turn=st.floats(-7, 7), closed=st.booleans())
def test_window_ends_match_brute_force(phi, steps, budget, turn, closed):
    phi = np.array(phi)
    s = np.concatenate(([0.0], np.cumsum(steps[:len(phi) - 1])))
    n_starts = len(s)
    if closed:
        s, phi = extended_by_one_turn(s, phi, turn)
    want = brute_window_ends(s, phi, budget, n_starts)
    assert [geometry._window_end(phi, budget, j) for j in range(n_starts)] == want


@given(phi=st.lists(st.floats(-3, 3), min_size=2, max_size=24),
       steps=st.lists(st.floats(1e-3, 1), min_size=23, max_size=23),
       budget=st.floats(0, 0.95 * np.pi), ccw=st.booleans(),
       turn=st.floats(np.pi, 3 * np.pi, exclude_min=True, exclude_max=True))
def test_one_turn_bounds_every_window_below_the_arc_length(phi, steps, budget, turn, ccw):
    # partition_curve's closed curves turn once, pi < |turn| < 3 pi, and its
    # budget is below 0.95 pi: the angle test alone stops every window
    # before it outgrows the arc length, so _window_end needs no arc-length cap
    turn = turn if ccw else -turn
    phi = np.array(phi)
    phi[-1] = phi[0] + turn
    s = np.concatenate(([0.0], np.cumsum(steps[:len(phi) - 1])))
    arc_len, n_starts = float(s[-1]), len(s)
    s, phi = extended_by_one_turn(s, phi, turn)
    assert (brute_window_ends(s, phi, budget, n_starts, arc_len)
            == brute_window_ends(s, phi, budget, n_starts))


def sampled_arc(curve):
    """partition_curve's (tt, z, s, phi, n_starts, cap), from the second of its two _sample_curve
    passes: a closed curve's s and phi extended by one turn, cap its arc length."""
    passes, sample = [], geometry._sample_curve

    def spy(curve, tt):
        passes.append((tt, *sample(curve, tt)))
        return passes[-1][1:]

    with mock.patch.object(geometry, "_sample_curve", spy):
        partition_curve(curve)
    assert len(passes) == 2
    tt, z, phi, s = passes[1]
    if not curve.closed:
        return tt, z, s, phi, s.shape[0], np.inf
    return tt, z, *extended_by_one_turn(s, phi, phi[-1] - phi[0]), s.shape[0], float(s[-1])


ARCS = {"circle:1e-3": circle(1e-3), "circle:1": circle(1.0), "circle:30": circle(30.0),
        "ellipse:2,1": ellipse(2.0, 1.0), "ellipse:10,1": ellipse(10.0, 1.0),
        "ellipse:100,1": ellipse(100.0, 1.0),
        "graph:poly:0,0.3,-1.2,0.9": polynomial_graph([0.0, 0.3, -1.2, 0.9], -1.0, 1.0)}


@pytest.mark.parametrize("every_start", [False, True], ids=["partition starts", "n starts"])
@pytest.mark.parametrize("max_slope", [0.1, 0.3, 1.0, 3.0, 50.0])
@pytest.mark.parametrize("name", ARCS)
def test_window_ends_equal_the_deque_scan(name, max_slope, every_start):
    # the scan stops a closed curve's windows at the arc length; the search
    # stops them one turn on, and must still give the same ends
    _, _, s, phi, n_starts, cap = sampled_arc(ARCS[name])
    budget = 2.0 * geometry._CONE_SAFETY * np.arctan(max_slope)
    n_starts = s.shape[0] if every_start else n_starts
    assert np.array_equal([geometry._window_end(phi, budget, j) for j in range(n_starts)],
                          scan_window_ends(s, phi, budget, n_starts, cap))


def test_partition_memory_stays_small():
    # the window search reads one start's samples at a time: 0.66 MB traced
    # on circle:1 at 64 nodes, where tables of every start's window end peaked at 1.20 MB
    curve = circle(1.0)
    tracemalloc.start()
    try:
        partition_curve(curve, nodes_per_patch=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75e6


OPEN_ARCS = {"graph:poly:0,0.3,-1.2,0.9": ARCS["graph:poly:0,0.3,-1.2,0.9"],
             "cubic": polynomial_graph([0.1, 0.3, -0.2, 0.25], -1.0, 1.0),
             "steep": polynomial_graph([0.0, 0.0, 2.0], -1.0, 1.0)}


@pytest.mark.parametrize("overlap", [0.0, 0.2, 0.45])
@pytest.mark.parametrize("max_slope", [0.1, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("name", OPEN_ARCS)
def test_open_arcs_keep_their_greedy_windows(name, max_slope, overlap):
    # closed curves share the open arcs' window routine; where the patches'
    # stencil margins, 2 of 1023 node intervals an end, fit in the overlap,
    # an open arc's windows on the partitioner's samples are the plain greedy
    # cover's, sample for sample
    _, z, s, phi, _, _ = sampled_arc(OPEN_ARCS[name])
    budget = 2.0 * geometry._CONE_SAFETY * np.arctan(max_slope)
    ovl = max(overlap, 0.05)
    assert (geometry._greedy_windows(s, z, phi, budget, ovl, 1024)
            == greedy_open_windows(s, phi, budget, ovl))


def test_partition_steep_open_arc_multi_window():
    steep = polynomial_graph([0.0, 0.0, 2.0], -1.0, 1.0)  # slope spans [-4, 4]
    patches = partition_curve(steep, max_slope=1.0, nodes_per_patch=48)
    assert len(patches) >= 2
    assert any(p.frame_angle != 0.0 for p in patches)
    for p in patches:
        p.validate(max_slope=1.0)

    rng = np.random.default_rng(1)
    ts = rng.uniform(0.0, 1.0, 2000)
    px, py = steep.position(ts)
    covered = np.zeros(ts.shape, dtype=bool)
    for p in patches:
        c, s = np.cos(p.frame_angle), np.sin(p.frame_angle)
        xi = c * px + s * py
        eta = -s * px + c * py
        inside = (xi >= p.x1[0]) & (xi <= p.x1[-1])
        near = np.zeros_like(inside)
        near[inside] = np.abs(eta[inside] - np.interp(xi[inside], p.x1, p.gamma)) < 0.05
        covered |= inside & near
    assert covered.all()


def test_partition_coverage_random_parameters():
    curve = ellipse(2.0, 1.0)
    patches = partition_curve(curve, nodes_per_patch=48)
    total = sum(p.n for p in patches)
    rng = np.random.default_rng(7)
    ts = rng.uniform(0.0, 1.0, 10 * total)
    px, py = curve.position(ts)
    covered = np.zeros(ts.shape, dtype=bool)
    for p in patches:
        c, s = np.cos(p.frame_angle), np.sin(p.frame_angle)
        xi = c * px + s * py
        eta = -s * px + c * py
        inside = (xi > p.x1[0]) & (xi < p.x1[-1])
        near = np.zeros_like(inside)
        near[inside] = np.abs(eta[inside] - np.interp(xi[inside], p.x1, p.gamma)) < 0.05
        covered |= inside & near
    assert covered.all()


CLOSED_COVERS = {"circle:1": (1.0, 1.0, 6), "ellipse:2,1": (2.0, 1.0, 7),
                 "ellipse:10,1": (10.0, 1.0, 10), "ellipse:100,1": (100.0, 1.0, 16)}


@pytest.mark.parametrize("nodes", [16, 64, 1024])
@pytest.mark.parametrize("name", CLOSED_COVERS)
def test_partition_overlap_fraction_respected(name, nodes):
    # consecutive windows of a closed partition, the last and the first one
    # turn on included, share >= 20% of the earlier one's arc, measured through
    # the parameter windows recovered from the grids, and their stencil
    # interiors meet, so the interiors cover the curve. Greedy windows from
    # t = 0 that ignore the margins number 6, 7, 10 and 16; at 1024 nodes the
    # margins cost no patch, and below at most as many again (a uniform
    # stride of the shortest window gave ellipse:100,1 24,075)
    a, b, most = CLOSED_COVERS[name]
    curve = ellipse(a, b)
    patches = partition_curve(curve, overlap_fraction=0.2, nodes_per_patch=nodes)
    assert len(patches) <= (1 if nodes == 1024 else 2) * most
    tt, _, s, _, _, arc_len = sampled_arc(curve)
    spans = []  # parameter t of each patch's end nodes and interior ends
    for p in patches:
        p.validate(max_slope=1.0)
        assert p.n == nodes
        x, y = p.nodes_global().T
        t = np.unwrap(np.arctan2(y / b, x / a)) / (2 * np.pi)  # up to whole turns
        lo = spans[-1][0] + (t[0] - spans[-1][0]) % 1.0 if spans else t[0] - np.floor(t[0] + 1e-9)
        spans.append(lo + t[[0, traces.MARGIN, -1 - traces.MARGIN, -1]] - t[0])
    spans.append(spans[0] + 1.0)
    arcs = np.interp(spans, np.concatenate((tt, tt[1:] + 1.0)), s)
    for (a0, _, _, a1), (b0, _, _, _), (_, _, i1, _), (_, j0, _, _) in zip(
            arcs[:-1], arcs[1:], spans[:-1], spans[1:]):
        assert a0 < b0
        assert a1 - b0 >= 0.2 * (a1 - a0) - 1e-9 * arc_len
        assert j0 <= i1 + 1e-12


def test_partition_is_deterministic():
    a = partition_curve(ellipse(2.0, 1.0), nodes_per_patch=32)
    b = partition_curve(ellipse(2.0, 1.0), nodes_per_patch=32)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.frame_angle == pb.frame_angle
        assert np.array_equal(pa.x1, pb.x1)
        assert np.array_equal(pa.gamma, pb.gamma)


def test_partition_rejects_corners():
    def pos(t):
        t = np.asarray(t, dtype=float) % 1.0
        seg = np.minimum((t * 4).astype(int), 3)
        lam = t * 4 - seg
        x = np.choose(seg, [lam, np.ones_like(lam), 1 - lam, np.zeros_like(lam)])
        y = np.choose(seg, [np.zeros_like(lam), lam, np.ones_like(lam), 1 - lam])
        return x, y

    def vel(t):
        t = np.asarray(t, dtype=float) % 1.0
        seg = np.minimum((t * 4).astype(int), 3)
        z = np.zeros_like(t)
        vx = np.choose(seg, [z + 4.0, z, z - 4.0, z])
        vy = np.choose(seg, [z, z + 4.0, z, z - 4.0])
        return vx, vy

    square = ParametricCurve(pos, vel)
    with pytest.raises(ValueError, match="corner"):
        partition_curve(square, nodes_per_patch=16)


def test_partition_rejects_irregular_curve():
    for scale in (1.0, 1e-13, 1e-200):
        check_irregular_astroid_rejected(scale)


def check_irregular_astroid_rejected(scale):
    # velocity vanishes at t = 0.5, at any scale
    def pos(t):
        t = np.asarray(t, dtype=float)
        return scale * np.cos(2 * np.pi * t) ** 3, scale * np.sin(2 * np.pi * t) ** 3

    def vel(t):
        t = np.asarray(t, dtype=float)
        w = 2 * np.pi
        return (-3 * w * scale * np.cos(w * t) ** 2 * np.sin(w * t),
                3 * w * scale * np.sin(w * t) ** 2 * np.cos(w * t))

    astroid = ParametricCurve(pos, vel)
    with pytest.raises(ValueError, match="regular"):
        partition_curve(astroid, nodes_per_patch=16)


def test_partition_rejects_bad_parameters():
    with pytest.raises(ValueError):
        partition_curve(circle(1.0), max_slope=0.0)
    with pytest.raises(ValueError):
        partition_curve(circle(1.0), overlap_fraction=0.5)
    with pytest.raises(ValueError):
        partition_curve(circle(1.0), nodes_per_patch=4)


NOT_POSITIVE_FINITE = {"zero": 0, "negative": -2.5, "nan": float("nan"), "inf": float("inf"),
                       "numpy-inf": np.float64(np.inf), "huge-int": 10 ** 400, "string": "2",
                       "bool": True, "numpy-bool": np.True_, "none": None, "complex": 2j}


@pytest.mark.parametrize("value", NOT_POSITIVE_FINITE.values(), ids=list(NOT_POSITIVE_FINITE))
def test_bounds_and_curve_sizes_share_one_positive_finite_rule(value):
    calls = [("radius", lambda: circle(value)),
             ("semi-axis a", lambda: ellipse(value, 1.0)),
             ("semi-axis b", lambda: ellipse(1.0, value)),
             ("max_slope", lambda: partition_curve(circle(1.0), max_slope=value))]
    if value is not None:  # validate's default, which audits no bound
        calls.append(("max_slope", lambda: graph_patch(0.0, 0.0, 0.0, 1.0, 8).validate(max_slope=value)))
    for name, call in calls:
        message = f"{name} must be a positive finite number, not {value!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call()


@pytest.mark.parametrize("value", [2, 2.0, np.float64(2.0), np.float32(2.0), np.int64(2)],
                         ids=["int", "float", "float64", "float32", "int64"])
def test_bounds_and_curve_sizes_accept_real_numbers(value):
    assert type(geometry.positive_finite("x", value)) is float
    assert circle(value).position(0.0) == circle(2.0).position(0.0)
    assert ellipse(value, 1.0).position(0.0) == ellipse(2.0, 1.0).position(0.0)
    patches = partition_curve(circle(1.0), max_slope=value, nodes_per_patch=16)
    for patch, want in zip(patches, partition_curve(circle(1.0), max_slope=2.0, nodes_per_patch=16),
                           strict=True):
        assert np.array_equal(patch.gamma_prime, want.gamma_prime)
        patch.validate(max_slope=value)
    assert geometry.positive_finite("x", sys.float_info.max) == sys.float_info.max


@pytest.mark.parametrize("bound", [1.0, 0.3, 2.5, 1e-300, 1e300])
def test_validate_audits_the_slope_bound_exactly(bound):
    # no slack: the partitioner's own test, so a patch at the bound passes and one a float above fails
    gamma_prime = np.zeros(8)
    gamma_prime[3] = -bound
    graph_patch(0.0, gamma_prime, 0.0, 1.0, 8).validate(max_slope=bound)
    gamma_prime[3] = -np.nextafter(bound, np.inf)
    with pytest.raises(ValueError, match="^" + re.escape(f"slope bound |gamma'| <= {bound} violated") + "$"):
        graph_patch(0.0, gamma_prime, 0.0, 1.0, 8).validate(max_slope=bound)


def test_partition_rejects_open_curve_marked_closed():
    broken = ParametricCurve(
        lambda t: (np.asarray(t, dtype=float), np.asarray(t, dtype=float) ** 2),
        lambda t: (np.ones_like(np.asarray(t, dtype=float)), 2 * np.asarray(t, dtype=float)),
        kind="analytic-closed-form")
    with pytest.raises(ValueError, match="close"):
        partition_curve(broken, nodes_per_patch=16)
    # the closure tolerance scales with the curve's extent, but stays tight:
    # a radius-1e4 circle whose end misses its start by about 6e-6
    ring = circle(1e4)
    shrunk = ParametricCurve(lambda t: ring.position((1 - 1e-10) * np.asarray(t, dtype=float)),
                             lambda t: ring.velocity((1 - 1e-10) * np.asarray(t, dtype=float)))
    with pytest.raises(ValueError, match="close"):
        partition_curve(shrunk, nodes_per_patch=16)


@pytest.mark.parametrize("radius", [1e-13, 1e-200])
def test_partition_rejects_small_open_arc_marked_closed(radius):
    # a half circle: regular at any scale, so only the closure test can refuse it
    def pos(t):
        a = np.pi * np.asarray(t, dtype=float)
        return radius * np.cos(a), radius * np.sin(a)

    def vel(t):
        a = np.pi * np.asarray(t, dtype=float)
        return -np.pi * radius * np.sin(a), np.pi * radius * np.cos(a)

    with pytest.raises(ValueError, match="does not close up"):
        partition_curve(ParametricCurve(pos, vel), nodes_per_patch=16)


def warped_circle(w):
    """Unit circle at angle a = 2 pi (t + w sin 2 pi t), position and velocity in closed form.

    A nonzero w makes the parameter speed vary along the circle: at w =
    0.15 it runs from 0.06 to 1.94 times the plain circle's. The point at
    angle b = 2 pi t is turned by a - b with the angle-sum formulas, since
    rounding a itself would add noise that the slow stretches do not scale
    down.
    """
    two_pi = 2 * np.pi

    def point(t):
        """The position at t and da/dt."""
        b = two_pi * np.asarray(t, dtype=float)
        cb, sb = np.cos(b), np.sin(b)
        c, s = np.cos(two_pi * w * sb), np.sin(two_pi * w * sb)
        return (cb * c - sb * s, sb * c + cb * s), two_pi * (1 + two_pi * w * cb)

    def position(t):
        return point(t)[0]

    def velocity(t):
        (x, y), speed = point(t)
        return -speed * y, speed * x

    return ParametricCurve(position, velocity)


@pytest.mark.parametrize("nodes", [8, 16, 64, 256])
@pytest.mark.parametrize("w", [0.0, 0.15])
def test_warped_circle_slope_from_velocity(w, nodes):
    patches = partition_curve(warped_circle(w), nodes_per_patch=nodes)
    assert len(patches) >= 4
    for p in patches:
        p.validate(max_slope=1.0)
        # the unit circle's tangent at a node's polar angle a is (-sin a,
        # cos a); in the patch frame its slope is what gamma' should be
        nodes_xy = p.nodes_global()
        ang = np.arctan2(nodes_xy[:, 1], nodes_xy[:, 0]) - p.frame_angle
        assert np.max(np.abs(p.gamma_prime + 1.0 / np.tan(ang))) <= 1e-5


INVERSION_CURVES = {
    "circle": lambda: circle(1.0),
    "ellipse": lambda: ellipse(2.0, 1.0),
    "cubic-graph": lambda: polynomial_graph([0.1, 0.3, -0.2, 0.25], -1.0, 1.0),
    "warped-circle-0.05": lambda: warped_circle(0.05),
    "warped-circle-0.15": lambda: warped_circle(0.15),
}


@pytest.mark.parametrize("nodes", [64, 1024, 4096])
@pytest.mark.parametrize("name", sorted(INVERSION_CURVES))
def test_node_inversion_accuracy(monkeypatch, name, nodes):
    solves = []
    invert = geometry._invert_monotone

    def recording(fn, dfn, tb, fb, targets):
        t = invert(fn, dfn, tb, fb, targets)
        solves.append((fn, dfn, np.asarray(targets), t))
        return t

    monkeypatch.setattr(geometry, "_invert_monotone", recording)
    curve = INVERSION_CURVES[name]()
    first = partition_curve(curve, nodes_per_patch=nodes)
    second = partition_curve(curve, nodes_per_patch=nodes)

    assert len(solves) == len(first) + len(second)
    for fn, dfn, target, t in solves:
        miss = np.abs(fn(t) - target)
        # roundoff in local_x, plus half a float step in t: on ellipse(2,1)
        # one step moves local_x by up to 6.3 eps, so no t does better
        bound = 4 * EPS * np.maximum(1.0, np.abs(target)) + 0.5 * np.abs(dfn(t)) * np.spacing(t)
        assert np.all(miss <= bound)

    assert len(first) == len(second)
    for pa, pb in zip(first, second):
        assert pa.frame_angle == pb.frame_angle
        for field in ("x1", "gamma", "gamma_prime", "mu"):
            assert getattr(pa, field).tobytes() == getattr(pb, field).tobytes()


# a window's cover sample times across a closed curve's seam, t = 1
TABLE = np.linspace(0.5, 1.5, 17)
OUTSIDE = [-0.5, np.nextafter(0.5, 0.0), 0.5, 1.0, 1.5, np.nextafter(1.5, 2.0)]


def test_inversion_rejects_target_outside_window():
    with pytest.raises(ValueError, match="1 of 3"):
        geometry._invert_monotone(lambda t: t, np.ones_like, TABLE, TABLE, [0.75, 1.0, 1.75])


def test_inversion_raises_when_not_converged(monkeypatch):
    monkeypatch.setattr(geometry, "_INVERT_MAX_STEPS", 1)
    with pytest.raises(ValueError, match="did not converge at 2 of 2"):
        geometry._invert_monotone(np.exp, np.exp, TABLE, np.exp(TABLE), np.exp([0.8, 1.1]))


BLOCKED_CURVES = {
    "ellipse": (lambda: ellipse(2.0, 1.0), 64),
    "circle": (lambda: circle(1.0), 64),
    "warped-circle-0.15": (lambda: warped_circle(0.15), 48),
    "cubic-graph-2^15": (lambda: polynomial_graph([0.1, 0.3, -0.2, 0.25], -1.0, 1.0), 1 << 15),
}


@pytest.mark.parametrize("name", sorted(BLOCKED_CURVES))
def test_partition_does_not_depend_on_the_block_size(monkeypatch, name):
    # 7-node solve blocks cut the targets at odd offsets; at 2^15 nodes
    # they end in a one-node block. A block longer than the patch solves
    # it in one piece
    make, nodes = BLOCKED_CURVES[name]
    want = partition_curve(make(), nodes_per_patch=nodes)
    for block in (7, 1 << 30):
        monkeypatch.setattr(geometry, "_SOLVE_NODES", block)
        got = partition_curve(make(), nodes_per_patch=nodes)
        assert len(got) == len(want)
        for pa, pb in zip(got, want):
            assert (pa.frame_angle, pa.orientation) == (pb.frame_angle, pb.orientation)
            for field in ("x1", "gamma", "gamma_prime", "mu"):
                assert getattr(pa, field).tobytes() == getattr(pb, field).tobytes()


# local abscissae that do not increase over TABLE; a NaN counts as a break
BAD_TABLES = {
    "drop at the seam": lambda t: np.where(t >= 1.0, t - 1.0, t),
    "tie at the seam": lambda t: np.where(t == 1.0, TABLE[7], t),
    "flat at the end": lambda t: np.minimum(t, TABLE[-2]),
    "nan in the middle": lambda t: np.where((t > 0.8) & (t < 1.2), np.nan, t),
    "break, then nan": lambda t: np.where(t == TABLE[3], TABLE[2], np.where(t > 1.4, np.nan, t)),
}


@pytest.mark.parametrize("block", [7, 1 << 30])
@pytest.mark.parametrize("fault", sorted(BAD_TABLES))
def test_inversion_refuses_a_bad_table_in_any_block(monkeypatch, block, fault):
    monkeypatch.setattr(geometry, "_SOLVE_NODES", block)
    fn = BAD_TABLES[fault]
    # targets outside the window too: the table's fault is named first
    with pytest.raises(ValueError, match="^local abscissa is not monotone over the patch window$"):
        geometry._invert_monotone(fn, np.ones_like, TABLE, fn(TABLE), np.linspace(0.0, 2.0, 64))


@pytest.mark.parametrize("block", [1, 7, 1 << 30])
def test_inversion_counts_targets_outside_the_table_in_any_block(monkeypatch, block):
    monkeypatch.setattr(geometry, "_SOLVE_NODES", block)
    with pytest.raises(ValueError, match="^3 of 6 node abscissae fall outside"):
        geometry._invert_monotone(lambda t: t, np.ones_like, TABLE, TABLE, OUTSIDE)
    with pytest.raises(ValueError, match="^1 of 2 node abscissae fall outside"):
        geometry._invert_monotone(lambda t: t, np.ones_like, TABLE, TABLE, [1.0, np.nan])
    # the window's two ends are inside it
    t = geometry._invert_monotone(lambda t: t, np.ones_like, TABLE, TABLE, [0.5, TABLE[7], 1.5])
    assert t.tolist() == [0.5, TABLE[7], 1.5]


@pytest.mark.parametrize("block", [1, 7, 1 << 30])
@pytest.mark.parametrize("case", sorted(BAD_TABLES) + ["3 of 6 outside"])
def test_inversion_runs_newton_only_on_a_sound_table_and_inside_it(monkeypatch, block, case):
    # a refused table or target runs no Newton (no dfn call) in any solve
    # block; on a sound one every Newton step stays inside the table
    monkeypatch.setattr(geometry, "_SOLVE_NODES", block)
    fn = BAD_TABLES.get(case, lambda t: t)
    message = "^3 of 6 node abscissae" if case not in BAD_TABLES else "^local abscissa is not monotone"
    newton = []

    def dfn(t):
        newton.append(t.copy())
        return np.cos(t)

    with pytest.raises(ValueError, match=message):
        geometry._invert_monotone(fn, dfn, TABLE, fn(TABLE), OUTSIDE)
    assert not newton
    geometry._invert_monotone(np.sin, dfn, TABLE, np.sin(TABLE), np.sin(np.linspace(0.5, 1.5, 50)))
    assert all(TABLE[0] <= t.min() and t.max() <= TABLE[-1] for t in newton)


def test_partition_refuses_a_curve_not_finite_between_its_check_samples():
    # NaN only on t in (0.50001, 0.50023), between the partitioner's samples
    # at 2048/4096 and 2049/4096; at 1024 nodes a patch node falls in it
    base = circle(1.0)

    def position(t):
        t = np.asarray(t, dtype=float)
        hole = (t > 0.50001) & (t < 0.50023)
        return tuple(np.where(hole, np.nan, v) for v in base.position(t))

    curve = ParametricCurve(position, base.velocity)
    with pytest.raises(ValueError, match="^curve samples are not finite$"):
        partition_curve(curve, nodes_per_patch=1024)


def test_partition_refuses_a_patch_that_tilts_past_the_bound_between_its_samples():
    # 1e-4 sin(4096 pi t)^2 and its slope vanish at every sample t = k / 4096,
    # so the windows see the unit circle; between samples the wiggle tilts a
    # patch's nodes past the bound
    w = 4096 * np.pi

    def position(t):
        x, y = circle(1.0).position(t)
        return x, y + 1e-4 * np.sin(w * np.asarray(t, dtype=float)) ** 2

    def velocity(t):
        vx, vy = circle(1.0).velocity(t)
        return vx, vy + 1e-4 * w * np.sin(2 * w * np.asarray(t, dtype=float))

    with pytest.raises(ValueError, match=r"^slope bound \|gamma'\| <= 1\.0 violated$"):
        partition_curve(ParametricCurve(position, velocity), nodes_per_patch=64)


def test_partition_refuses_a_viscosity_that_is_not_positive_at_a_node():
    # mu = x1 is negative on the left half of the circle
    with pytest.raises(ValueError, match="^viscosity must be positive at every node$"):
        partition_curve(circle(1.0), mu=lambda x, y: x)


@pytest.mark.parametrize("part", ["position", "velocity"])
def test_partition_refuses_a_curve_not_finite_at_a_node_alone(part):
    # NaN within 1e-13 of node 20 of a one-patch graph, far narrower than
    # the node table's spacing: the node's gamma or gamma' would be NaN
    x1, _ = uniform_grid(-1.0, 1.0, 64)

    def at_node_20(f):
        return lambda x: np.where(np.abs(x - x1[20]) < 1e-13, np.nan, f(x))

    f, fprime = (lambda x: 0.1 * x), (lambda x: np.full_like(x, 0.1))
    if part == "position":
        curve = geometry.graph_curve(at_node_20(f), fprime, -1.0, 1.0)
    else:
        curve = geometry.graph_curve(f, at_node_20(fprime), -1.0, 1.0)
    with pytest.raises(ValueError, match="^curve samples are not finite$"):
        partition_curve(curve, nodes_per_patch=64)


def test_partition_memory_is_bounded_by_the_table():
    # Newton runs on 2^11 nodes at a time, bracketed among the cover's
    # samples: 2.83 MiB measured. The bound is 5% above the 2.76 MiB of a
    # second table of 8 samples a node, streamed in blocks. 2^14-node solve
    # blocks peaked at 4.62 MiB, that table held at once at 5.8-6.3 MiB
    curve = polynomial_graph([0.1, 0.3, -0.2, 0.25], -1.0, 1.0)
    tracemalloc.start()
    try:
        partition_curve(curve, nodes_per_patch=1 << 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.89 * 2**20
