import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cauchyflow import (BoundaryPatch, FrameRotation, ParametricCurve,
                        VectorTrace, circle, ellipse, geometry, graph_patch,
                        normal_at, partition_curve, polynomial_graph,
                        rotate_vector_trace, theta, uniform_grid)
from cauchyflow import traces
from helpers import rotate_rows, rotation_matrix

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
    want = geometry._build_patch(line, frame, 0.0, 1.0, 32, 1.0, "below", 1.0)
    assert patch.frame_angle == want.frame_angle and patch.orientation == want.orientation
    for name in ("x1", "gamma", "gamma_prime", "mu"):
        assert np.array_equal(getattr(patch, name), getattr(want, name)), name


def brute_window_ends(s, phi, budget, n_starts, cap):
    """Per start j, the largest k with span(phi[j..k]) <= budget and s[k] - s[j] <= cap."""
    return [max(k for k in range(j, len(s))
                if phi[j:k + 1].max() - phi[j:k + 1].min() <= budget and s[k] - s[j] <= cap)
            for j in range(n_starts)]


@given(phi=st.lists(st.floats(-3, 3), min_size=2, max_size=24),
       steps=st.lists(st.floats(1e-3, 1), min_size=23, max_size=23),
       budget=st.floats(0, 3), turn=st.floats(-7, 7), closed=st.booleans())
def test_window_ends_match_brute_force(phi, steps, budget, turn, closed):
    phi = np.array(phi)
    s = np.concatenate(([0.0], np.cumsum(steps[:len(phi) - 1])))
    if closed:  # partition_curve's call: one turn appended, windows capped at the arc length
        arc_len = float(s[-1])
        args = (np.concatenate((s, s[1:] + arc_len)), np.concatenate((phi, phi[1:] + turn)),
                budget, len(s), arc_len)
    else:
        args = (s, phi, budget, len(s), np.inf)
    assert geometry._window_ends(*args).tolist() == brute_window_ends(*args)


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


def test_partition_overlap_fraction_respected():
    # consecutive windows of a closed partition share >= 20% of their arc;
    # measured here through the parameter windows recovered from the grids
    curve = circle(1.0)
    patches = partition_curve(curve, overlap_fraction=0.2, nodes_per_patch=64)
    spans = []
    for p in patches:
        c, s = np.cos(p.frame_angle), np.sin(p.frame_angle)
        ang = np.arctan2(s * p.x1 + c * p.gamma, c * p.x1 - s * p.gamma)
        ang = np.unwrap(ang)
        spans.append((ang[0], ang[-1]))
    for k in range(len(spans)):
        a0, a1 = spans[k]
        b0, b1 = spans[(k + 1) % len(spans)]
        while b0 < a0:
            b0 += 2 * np.pi
            b1 += 2 * np.pi
        overlap = a1 - b0
        assert overlap >= 0.2 * min(a1 - a0, b1 - b0) - 1e-9


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

    def recording(fn, dfn, t_lo, t_hi, targets):
        t = invert(fn, dfn, t_lo, t_hi, targets)
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


def test_inversion_rejects_target_outside_window():
    with pytest.raises(ValueError, match="1 of 3"):
        geometry._invert_monotone(lambda t: t, np.ones_like, 0.0, 1.0, [0.25, 0.5, 1.5])


def test_inversion_raises_when_not_converged(monkeypatch):
    monkeypatch.setattr(geometry, "_INVERT_MAX_STEPS", 1)
    with pytest.raises(ValueError, match="did not converge at 2 of 2"):
        geometry._invert_monotone(np.exp, np.exp, 0.0, 1.0, np.exp([0.3, 0.6]))


BLOCKED_CURVES = {
    "ellipse": (lambda: ellipse(2.0, 1.0), 64),
    "circle": (lambda: circle(1.0), 64),
    "warped-circle-0.15": (lambda: warped_circle(0.15), 48),
    "cubic-graph-2^15": (lambda: polynomial_graph([0.1, 0.3, -0.2, 0.25], -1.0, 1.0), 1 << 15),
}


@pytest.mark.parametrize("name", sorted(BLOCKED_CURVES))
def test_partition_does_not_depend_on_the_block_size(monkeypatch, name):
    # 7-node blocks cut the table and the targets at odd offsets; at 2^15
    # nodes both end in a one-node block. A block longer than the table
    # builds it in one piece
    make, nodes = BLOCKED_CURVES[name]
    want = partition_curve(make(), nodes_per_patch=nodes)
    for block in (7, 1 << 30):
        monkeypatch.setattr(traces, "_BLOCK_NODES", block)
        got = partition_curve(make(), nodes_per_patch=nodes)
        assert len(got) == len(want)
        for pa, pb in zip(got, want):
            assert (pa.frame_angle, pa.orientation) == (pb.frame_angle, pb.orientation)
            for field in ("x1", "gamma", "gamma_prime", "mu"):
                assert getattr(pa, field).tobytes() == getattr(pb, field).tobytes()


# on [0.2, 0.9] the last sample time is t_hi, not t_lo + (num - 1) * step
@pytest.mark.parametrize("block", [7, 1 << 14, 1 << 30])
@pytest.mark.parametrize("t_lo, t_hi, nodes", [(0.0, 1.0, 64), (0.2, 0.9, 1000), (0.3, 1.9, 4099)])
def test_inversion_table_times_are_linspace(monkeypatch, block, t_lo, t_hi, nodes):
    # the table's blocks are the first calls of fn, in order
    monkeypatch.setattr(traces, "_BLOCK_NODES", block)
    calls = []

    def fn(t):
        calls.append(t.copy())
        return t

    geometry._invert_monotone(fn, np.ones_like, t_lo, t_hi, np.linspace(t_lo, t_hi, nodes)[1:-1])
    want = np.linspace(t_lo, t_hi, max(1024, 8 * (nodes - 2)))
    blocks = -(-want.size // block)
    assert [c.size for c in calls[:blocks - 1]] == [block] * (blocks - 1)
    assert np.concatenate(calls[:blocks]).tobytes() == want.tobytes()


# the 1024 sample times of a table on [0, 1] for up to 128 targets; with
# 7-sample blocks, sample 7 opens the second block
TABLE = np.linspace(0.0, 1.0, 1024)
TABLE_FAULTS = {
    "drop at the seam": (lambda t: np.where(t >= TABLE[7], t - 1.0, t), "not monotone"),
    "tie at the seam": (lambda t: np.where(t == TABLE[7], TABLE[6], t), "not monotone"),
    "flat at the end": (lambda t: np.minimum(t, TABLE[-2]), "not monotone"),
    "nan in the middle": (lambda t: np.where((t > 0.3) & (t < 0.7), np.nan, t), "not finite"),
    "inf at the end": (lambda t: np.where(t == 1.0, np.inf, t), "not finite"),
    # a later non-finite sample is named before an earlier break
    "break, then nan": (lambda t: np.where(t == TABLE[3], 0.0, np.where(t > 0.9, np.nan, t)),
                        "not finite"),
}


@pytest.mark.parametrize("block", [7, 1 << 30])
@pytest.mark.parametrize("fault", sorted(TABLE_FAULTS))
def test_inversion_refuses_a_bad_table_in_any_block(monkeypatch, block, fault):
    monkeypatch.setattr(traces, "_BLOCK_NODES", block)
    fn, message = TABLE_FAULTS[fault]
    message = {"not monotone": "^local abscissa is not monotone over the patch window$",
               "not finite": "^curve samples are not finite$"}[message]
    # targets outside the window too: the table's faults are named first
    targets = np.linspace(-0.5, 1.5, 64)
    with pytest.raises(ValueError, match=message):
        geometry._invert_monotone(fn, np.ones_like, 0.0, 1.0, targets)


@pytest.mark.parametrize("block", [1, 7, 1 << 30])
def test_inversion_counts_targets_outside_the_table_in_any_block(monkeypatch, block):
    monkeypatch.setattr(traces, "_BLOCK_NODES", block)
    with pytest.raises(ValueError, match="^3 of 6 node abscissae fall outside"):
        geometry._invert_monotone(lambda t: t, np.ones_like, 0.0, 1.0,
                                  [-0.5, -1e-300, 0.0, 0.5, 1.0, np.nextafter(1.0, 2.0)])
    # the window's two ends are inside it; a first block of one sample
    # leaves the first target to the next block's bracket
    t = geometry._invert_monotone(lambda t: t, np.ones_like, 0.0, 1.0, [0.0, TABLE[7], 1.0])
    assert t.tolist() == [0.0, TABLE[7], 1.0]


def test_partition_refuses_a_curve_not_finite_between_its_check_samples():
    # NaN only on t in (0.50001, 0.50023), between the partitioner's samples
    # at 2048/4096 and 2049/4096, but inside the node tables of the patches
    # that cover it
    base = circle(1.0)

    def position(t):
        t = np.asarray(t, dtype=float)
        hole = (t > 0.50001) & (t < 0.50023)
        return tuple(np.where(hole, np.nan, v) for v in base.position(t))

    curve = ParametricCurve(position, base.velocity)
    for nodes in (64, 1024):
        with pytest.raises(ValueError, match="^curve samples are not finite$"):
            partition_curve(curve, nodes_per_patch=nodes)


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
    # the table is built and dropped a block at a time, so a 2^14-node
    # Newton block and the four bracket arrays (1 MiB) set the peak:
    # 5.47 MiB measured, bound 5% above it. The whole table and its sample
    # times (4 MiB at 2^15 nodes) peaked at 5.8-6.3 MiB, and with Newton on
    # every node at once at 12.5 MiB
    curve = polynomial_graph([0.1, 0.3, -0.2, 0.25], -1.0, 1.0)
    tracemalloc.start()
    try:
        partition_curve(curve, nodes_per_patch=1 << 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.75 * 2**20
