import dataclasses
import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyflow import (BoundaryPatch, CauchyDN, CauchyStress, Dataset, GradientTrace,
                        ParametricCurve, ScalarTrace, VectorTrace, analytic_trace_slopes,
                        assemble_system, dataset_from_traces, graph_patch, theta, uniform_grid,
                        determinant, dn_to_stress, evaluate_traces,
                        normal_at, rigid_motion,
                        solve_system, stress_to_dn, traction_from_gradient,
                        builtin_catalog, FLOWS, PRESSURES, VISCOSITIES)
from cauchyflow import geometry, manufactured, transform
from helpers import (flat_patch, max_abs_diff, normal_derivative_from_gradient,
                     rotated_field, rotated_flow, sine_patch, tolerance_by_fresh_differences,
                     traction_oracle)

slope = st.floats(-5, 5)
viscosity = st.floats(0.1, 10)
entry = st.floats(-3, 3)


def test_assemble_flat_unit_viscosity():
    expected = np.array([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 1, 1, 0],
        [-2, 0, 0, -1],
    ], dtype=float)
    assert np.array_equal(assemble_system(0.0, 1.0), expected)


def test_assemble_unit_slope_mu_two():
    expected = np.array([
        [1, 0, 1, 0],
        [-1, 1, 0, 0],
        [-4, 2, 2, 1],
        [-4, -2, -2, -1],
    ], dtype=float)
    assert np.array_equal(assemble_system(1.0, 2.0), expected)


def test_assemble_rejects_nonpositive_viscosity():
    with pytest.raises(ValueError):
        assemble_system(0.0, 0.0)
    with pytest.raises(ValueError):
        assemble_system(0.0, -1.0)


def test_determinant_examples():
    assert determinant(assemble_system(0.0, 1.0)) == -1.0
    assert determinant(assemble_system(1.0, 2.0)) == -8.0


@given(gp=slope, mu=viscosity)
def test_determinant_identity(gp, mu):
    d = determinant(assemble_system(gp, mu))
    expected = -mu * (1.0 + gp * gp) ** 2
    assert abs(d - expected) <= 1e-12 * abs(expected)


def test_determinant_magnitude_formula_random_sample():
    rng = np.random.default_rng(42)
    gp = rng.uniform(-5, 5, 1000)
    mu = rng.uniform(0.1, 10, 1000)
    d = determinant(assemble_system(gp, mu))
    magnitude = (np.abs(gp) ** 4 + 2 * np.abs(gp) ** 2 + 1) * mu
    assert np.max(np.abs(np.abs(d) - magnitude) / magnitude) <= 1e-12


def test_determinant_against_numpy():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(50, 4, 4))
    assert np.allclose(determinant(a), np.linalg.det(a), rtol=1e-10, atol=1e-12)


def test_traction_examples():
    t1, t2 = traction_from_gradient(GradientTrace(1.0, 2.0, 3.0, 5.0), 0.0, 1.0)
    assert (t1, t2) == (5.0, -7.0)

    # zero strain: traction reduces to -p nu for any viscosity
    for mu in (1.0, 3.7):
        for p in (0.0, 2.5, -4.0):
            t1, t2 = traction_from_gradient(GradientTrace(0.0, -1.0, 1.0, p), 0.0, mu)
            assert (t1, t2) == (0.0, -p)

    t1, t2 = traction_from_gradient(GradientTrace(1.0, 1.0, 1.0, 0.0), 1.0, 1.0)
    assert abs(t1) <= 1e-15
    assert abs(t2 + 2.0 * np.sqrt(2.0)) <= 1e-14


@given(f1=entry, f2=entry, f3=entry, p=entry, gp=entry, mu=viscosity)
def test_traction_two_paths_agree(f1, f2, f3, p, gp, mu):
    t1, t2 = traction_from_gradient(GradientTrace(f1, f2, f3, p), gp, mu)
    o1, o2 = traction_oracle(f1, f2, f3, p, gp, mu)
    assert abs(t1 - o1) <= 1e-13 and abs(t2 - o2) <= 1e-13


def _zero_or_at_least(tiny, bound):
    return st.one_of(st.just(0.0), st.floats(tiny, bound), st.floats(-bound, -tiny))


# scaling by powers of two is only exact while every product stays in the
# normal range: nonzero inputs as small as gp = f3 = 3.93e-161 make gp * f3
# subnormal, so each value here is 0 or at least 1e-100 in magnitude
normal_entry = _zero_or_at_least(1e-100, 3.0)


@given(f1=normal_entry, f2=normal_entry, f3=normal_entry,
       gp=_zero_or_at_least(1e-100, 5.0), mu=viscosity)
def test_traction_viscosity_scaling(f1, f2, f3, gp, mu):
    grad = GradientTrace(f1, f2, f3, 0.0)
    base = traction_from_gradient(grad, gp, mu)
    for c in (2.0, 0.5, 8.0):  # powers of two scale without rounding
        scaled = traction_from_gradient(grad, gp, c * mu)
        assert scaled[0] == c * base[0] and scaled[1] == c * base[1]
    general = traction_from_gradient(grad, gp, 3.0 * mu)
    scale = max(1.0, abs(base[0]), abs(base[1]))
    assert abs(general[0] - 3.0 * base[0]) <= 1e-13 * scale
    assert abs(general[1] - 3.0 * base[1]) <= 1e-13 * scale


def test_normal_derivative_examples():
    assert normal_derivative_from_gradient(GradientTrace(1., 2., 3., 0.), 0.0) == (3.0, -1.0)
    d1, d2 = normal_derivative_from_gradient(GradientTrace(1., 2., 3., 0.), 1.0)
    assert abs(d1 - np.sqrt(2.0)) <= 1e-15
    assert abs(d2 + 3.0 / np.sqrt(2.0)) <= 1e-15
    assert normal_derivative_from_gradient(GradientTrace(0., 0., 0., 0.), 2.0) == (0.0, 0.0)


def test_normal_derivative_orientation_negates():
    # the mirror is applied once, to dnu and the traction together
    flow, pres, visc = FLOWS["trig"], PRESSURES["trig"], VISCOSITIES["variable"]
    below = evaluate_traces(flow, pres, visc, sine_patch(32, orientation="below"))
    above = evaluate_traces(flow, pres, visc, sine_patch(32, orientation="above"))
    for b, a in ((below[0].u, above[0].u), (below[1].u, above[1].u)):
        assert np.array_equal(a.stacked(), b.stacked())
    assert np.array_equal(above[0].p.values, below[0].p.values)
    assert np.array_equal(above[0].dnu.stacked(), -below[0].dnu.stacked())
    assert np.array_equal(above[1].traction.stacked(), -below[1].traction.stacked())


def test_solve_examples():
    assert np.allclose(solve_system(0.0, 1.0, [1., 2., 5., -7.]), [1., 2., 3., 5.],
                       rtol=0, atol=1e-13)
    assert np.all(solve_system(1.0, 2.0, np.zeros(4)) == 0.0)
    rhs = assemble_system(1.0, 2.0) @ np.array([1., 0., 0., 1.])
    assert np.allclose(rhs, [1., -1., -3., -5.], rtol=0, atol=0)
    assert np.allclose(solve_system(1.0, 2.0, rhs), [1., 0., 0., 1.], rtol=0, atol=1e-14)


def test_solve_round_trip_random():
    rng = np.random.default_rng(11)
    gp = rng.uniform(-5, 5, 1000)
    mu = rng.uniform(0.1, 10, 1000)
    f = rng.uniform(-10, 10, (1000, 4))
    rhs = (assemble_system(gp, mu) @ f[..., None])[..., 0]
    back = solve_system(gp, mu, rhs)
    scale = np.maximum(np.max(np.abs(f), axis=-1), 1e-30)
    assert np.max(np.max(np.abs(back - f), axis=-1) / scale) <= 1e-11


def test_solve_residual_bound():
    rng = np.random.default_rng(5)
    gp = rng.uniform(-5, 5, 500)
    mu = rng.uniform(0.1, 10, 500)
    rhs = rng.uniform(-10, 10, (500, 4))
    f = solve_system(gp, mu, rhs)
    res = np.max(np.abs((assemble_system(gp, mu) @ f[..., None])[..., 0] - rhs), axis=-1)
    assert np.all(res <= 1e-12 * (1.0 + np.max(np.abs(rhs), axis=-1)))


def _couette_stress(patch):
    # u = (x2, 0) on the flat patch: zero trace, traction (mu, 0) scaled by nu
    n = patch.n
    h = patch.h
    u = VectorTrace.from_arrays(np.zeros(n), np.zeros(n), h)
    traction = VectorTrace.from_arrays(np.ones(n), np.zeros(n), h)
    return CauchyStress(u, traction)


def test_stress_to_dn_couette_flat():
    patch = flat_patch(16)
    dn, residual = stress_to_dn(_couette_stress(patch), patch)
    assert residual <= 1e-14
    assert np.max(np.abs(dn.dnu.c1.values - 1.0)) <= 1e-14
    assert np.max(np.abs(dn.dnu.c2.values)) <= 1e-14
    assert np.max(np.abs(dn.p.values)) <= 1e-14


def test_stress_to_dn_stagnation_flat():
    patch = flat_patch(16)
    x = patch.x1
    h = patch.h
    u = VectorTrace.from_arrays(x, np.zeros_like(x), h)
    traction = VectorTrace.from_arrays(np.zeros_like(x), np.full_like(x, -5.0), h)
    dn, _ = stress_to_dn(CauchyStress(u, traction), patch)
    assert np.max(np.abs(dn.dnu.c1.values)) <= 1e-13
    assert np.max(np.abs(dn.dnu.c2.values + 1.0)) <= 1e-13
    assert np.max(np.abs(dn.p.values - 3.0)) <= 1e-13


def test_stress_to_dn_zero_data():
    patch = sine_patch(16)
    n, h = patch.n, patch.h
    zero = VectorTrace.from_arrays(np.zeros(n), np.zeros(n), h)
    dn, residual = stress_to_dn(CauchyStress(zero, zero), patch)
    assert residual == 0.0
    assert np.all(dn.dnu.stacked() == 0.0) and np.all(dn.p.values == 0.0)


def test_dn_to_stress_inverts_examples():
    patch = flat_patch(16)
    x = patch.x1
    h = patch.h
    dn = CauchyDN(
        VectorTrace.from_arrays(x, np.zeros_like(x), h),
        VectorTrace.from_arrays(np.zeros_like(x), np.full_like(x, -1.0), h),
        ScalarTrace(np.full_like(x, 3.0), h),
    )
    stress, residual = dn_to_stress(dn, patch)
    assert residual <= 1e-12
    assert np.max(np.abs(stress.traction.c1.values)) <= 1e-13
    assert np.max(np.abs(stress.traction.c2.values + 5.0)) <= 1e-13

    dn2 = CauchyDN(
        VectorTrace.from_arrays(np.zeros_like(x), np.zeros_like(x), h),
        VectorTrace.from_arrays(np.ones_like(x), np.zeros_like(x), h),
        ScalarTrace(np.zeros_like(x), h),
    )
    stress2, residual2 = dn_to_stress(dn2, patch)
    assert residual2 <= 1e-12
    assert np.max(np.abs(stress2.traction.c1.values - 1.0)) <= 1e-13
    assert np.max(np.abs(stress2.traction.c2.values)) <= 1e-13


@pytest.mark.parametrize("orientation", ["below", "above"])
def test_stress_to_dn_matches_generic_solver(orientation):
    # reference: the generic 4x4 solve in the physical frame, where a
    # domain-above patch reverses the normal and so negates rows 3 and 4
    rng = np.random.default_rng(17)
    n = 2000
    x1, _ = uniform_grid(-1.0, 1.0, n)
    gp = rng.uniform(-5.0, 5.0, n)
    patch = BoundaryPatch(0.0, x1, np.zeros(n), gp, rng.uniform(0.1, 10.0, n), orientation)
    u1, u2, t1, t2, p1, p2 = rng.uniform(-10.0, 10.0, (6, n))
    data = CauchyStress(VectorTrace.from_arrays(u1, u2, patch.h),
                        VectorTrace.from_arrays(t1, t2, patch.h))
    dn, residual = stress_to_dn(data, patch, u_prime=(p1, p2))

    inner = patch.interior()
    g, cut = inner.gamma_prime, slice(2, -2)
    side = -1.0 if orientation == "above" else 1.0
    scaled = side * theta(g)
    rhs = np.stack([p1[cut], p2[cut], scaled * t1[cut], scaled * t2[cut]], axis=-1)
    f = solve_system(g, inner.mu, rhs)
    d1, d2 = (side * d for d in normal_derivative_from_gradient(GradientTrace(*f.T), g))
    want = np.stack([d1, d2, f[:, 3]], axis=-1)
    got = np.stack([dn.dnu.c1.values, dn.dnu.c2.values, dn.p.values], axis=-1)
    scale = np.max(np.abs(want), axis=-1)
    assert residual == 0.0
    assert np.all(np.max(np.abs(got - want), axis=-1) <= 1e-12 * scale)
    assert np.array_equal(dn.u.c2.values, u2[cut])


def test_conversions_bypass_generic_solver(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("conversion reached the generic 4x4 solver")

    for name in ("solve_system", "assemble_system"):
        monkeypatch.setattr(transform, name, forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    flow, pres, visc = FLOWS["trig"], PRESSURES["linear"], VISCOSITIES["variable"]
    for orientation in ("below", "above"):
        patch = sine_patch(40, mu=visc.value, orientation=orientation)
        dn, stress, _ = evaluate_traces(flow, pres, visc, patch)
        assert stress_to_dn(stress, patch)[1] == 0.0
        dn_to_stress(dn, patch)


def test_grid_mismatch_rejected():
    patch = flat_patch(16)
    short = VectorTrace.from_arrays(np.zeros(15), np.zeros(15), patch.h)
    with pytest.raises(ValueError, match="grid"):
        stress_to_dn(CauchyStress(short, short), patch)


def zero_vector(n, h):
    return VectorTrace.from_arrays(np.zeros(n), np.zeros(n), h)


def zero_stress(n, h):
    return CauchyStress(zero_vector(n, h), zero_vector(n, h))


def zero_dn(n, h):
    return CauchyDN(zero_vector(n, h), zero_vector(n, h), ScalarTrace(np.zeros(n), h))


def zero_dataset(kind):
    patch = flat_patch(8)
    return dataset_from_traces(patch, **{kind: (zero_dn if kind == "dn" else zero_stress)(8, patch.h)})


def off_grid(entry, dn_nodes, traction_nodes=None, *args):
    """`entry` on a 64-node flat patch and zero data of the given node counts."""
    patch = flat_patch(64)
    traction = None if traction_nodes is None else zero_vector(traction_nodes, patch.h)
    return entry(patch, zero_dn(dn_nodes, patch.h), traction, *args)


# each library refusal with its whole message; the grid checks run before
# patch.validate(), the u_prime shape check after it
REFUSALS = {
    "data spacing": (lambda: stress_to_dn(zero_stress(16, 1.0), flat_patch(16)),
                     "data grid spacing does not match the patch"),
    "4-node patch": (lambda: dn_to_stress(zero_dn(4, flat_patch(4).h), flat_patch(4)),
                     "patch too short for stencil differentiation"),
    "u_prime shape": (lambda: stress_to_dn(zero_stress(16, flat_patch(16).h), flat_patch(16),
                                           u_prime=(np.zeros(3), np.zeros(3))),
                      "u_prime arrays must match the full patch grid"),
    # every array an entry reads is checked against the patch grid, the
    # traction and dnu included, before tolerance or the blocks read it
    "traction grid": (lambda: off_grid(transform.data_checks, 64, 40),
                      "data grid does not match the patch grid"),
    "traction grid, residual_tol": (lambda: off_grid(transform.data_checks, 64, 40, 1e-3),
                                    "data grid does not match the patch grid"),
    "dn grid": (lambda: off_grid(transform.data_checks, 6), "data grid does not match the patch grid"),
    "tolerance traction grid": (lambda: off_grid(transform.tolerance, 64, 40),
                                "data grid does not match the patch grid"),
    "traction spacing": (lambda: stress_to_dn(CauchyStress(zero_vector(16, flat_patch(16).h),
                                                           zero_vector(16, 1.0)), flat_patch(16)),
                         "data grid spacing does not match the patch"),
    "1-node grid": (lambda: uniform_grid(0.0, 1.0, 1), "grid needs at least 2 nodes"),
    "fractional node count": (lambda: uniform_grid(0.0, 1.0, 5.5), "node count must be an integer, got 5.5"),
    "fractional patch nodes": (lambda: graph_patch(0.0, 0.0, 0.0, 1.0, 5.5),
                               "node count must be an integer, got 5.5"),
    "fractional partition nodes": (lambda: geometry.partition_curve(geometry.circle(1.0), nodes_per_patch=16.5),
                                   "node count must be an integer, got 16.5"),
    "empty span": (lambda: uniform_grid(1.0, 0.0, 4), "grid span is empty"),
    # the spacing 2^-1075 rounds to 0
    "span too small": (lambda: uniform_grid(0.0, 5e-324, 3),
                       "grid span too small for the requested node count"),
    # a spacing below about 2^-1041 has no raster step
    "spacing without raster": (lambda: uniform_grid(0.0, 1e-320, 2),
                               "grid span too small for the requested node count"),
    "graph patch without raster": (lambda: graph_patch(0.0, 0.0, 0.0, 1e-320, 2),
                                   "grid span too small for the requested node count"),
    "patch lengths": (lambda: BoundaryPatch(0.0, np.arange(4.0), np.zeros(3), np.zeros(4), np.ones(4)),
                      "patch arrays must share the grid length"),
    "patch orientation": (lambda: BoundaryPatch(0.0, np.arange(4.0), np.zeros(4), np.zeros(4),
                                                np.ones(4), "left"),
                          "orientation must be one of ('below', 'above')"),
    "descending grid": (lambda: BoundaryPatch(0.0, -np.arange(4.0), np.zeros(4), np.zeros(4),
                                              np.ones(4)).validate(),
                        "grid spacing must be positive"),
    "interior": (lambda: flat_patch(4).interior(), "patch too short to restrict: needs at least 6 nodes"),
    # five nodes would leave a 1-node interior, which is no patch
    "5-node interior": (lambda: flat_patch(5).interior(),
                        "patch too short to restrict: needs at least 6 nodes"),
    "normal orientation": (lambda: normal_at(0.0, "left"), "orientation must be one of ('below', 'above')"),
    "trace rank": (lambda: ScalarTrace(np.zeros((2, 2)), 0.1), "trace values must be one-dimensional"),
    "trace spacing": (lambda: ScalarTrace(np.zeros(3), 0.0), "grid spacing must be positive"),
    "vector spacings": (lambda: VectorTrace(ScalarTrace(np.zeros(3), 0.1), ScalarTrace(np.zeros(3), 0.2)),
                        "vector trace components must share the grid spacing"),
    "gradient shapes": (lambda: GradientTrace(*[np.zeros(3)] * 3, np.zeros(4)),
                        "gradient trace components must share one shape"),
    "dn lengths": (lambda: CauchyDN(zero_vector(3, 0.1), zero_vector(3, 0.1), ScalarTrace(np.zeros(4), 0.1)),
                   "boundary data traces must share the grid length"),
    "stress lengths": (lambda: CauchyStress(zero_vector(3, 0.1), zero_vector(4, 0.1)),
                       "boundary data traces must share the grid length"),
    "data kind": (lambda: Dataset(flat_patch(8), "mystery", np.zeros(8), np.zeros(8)),
                  "unknown data_kind 'mystery'"),
    "dn of stress data": (lambda: zero_dataset("stress").dn(), "dataset carries no normal-derivative data"),
    "stress of dn data": (lambda: zero_dataset("dn").stress(), "dataset carries no traction data"),
    "no traces": (lambda: dataset_from_traces(flat_patch(8)), "need at least one of dn or stress data"),
    # a dataset's traces lie on its patch grid, as the conversions' do
    "dataset trace grid": (lambda: dataset_from_traces(flat_patch(8), stress=zero_stress(16, flat_patch(8).h)),
                           "data grid does not match the patch grid"),
    "dataset trace spacing": (lambda: dataset_from_traces(flat_patch(8), stress=zero_stress(8, 5.0)),
                              "data grid spacing does not match the patch"),
    # a slope bound that audits nothing is refused, not passed
    "nan slope bound": (lambda: graph_patch(0.0, 5.0, 0.0, 1.0, 8).validate(max_slope=float("nan")),
                        "max_slope must be a positive finite number, not nan"),
    "inf slope bound": (lambda: graph_patch(0.0, 5.0, 0.0, 1.0, 8).validate(max_slope=float("inf")),
                        "max_slope must be a positive finite number, not inf"),
    "zero slope bound": (lambda: flat_patch(8).validate(max_slope=0.0),
                         "max_slope must be a positive finite number, not 0.0"),
    "curve kind": (lambda: ParametricCurve(np.sin, np.cos, kind="bogus"),
                   "kind must be one of ('analytic-closed-form', 'open')"),
    "non-monotone abscissa": (lambda: geometry._invert_monotone(lambda t: -t, lambda t: -np.ones_like(t),
                                                                0.0, 1.0, np.array([-0.5])),
                              "local abscissa is not monotone over the patch window"),
    "matrix shape": (lambda: determinant(np.zeros((3, 3))), "expected trailing shape (4, 4)"),
    "system viscosity": (lambda: assemble_system(0.0, 0.0), "viscosity must be positive"),
    "traction viscosity": (lambda: traction_from_gradient(GradientTrace(1.0, 2.0, 3.0, 0.0), 0.0, -1.0),
                           "viscosity must be positive"),
    "rhs length": (lambda: solve_system(0.0, 1.0, np.zeros(3)), "rhs must have trailing length 4"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=list(REFUSALS))
def test_library_refusals(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


def test_round_trip_analytic_both_orientations():
    flow, pres, visc = FLOWS["trig"], PRESSURES["linear"], VISCOSITIES["variable"]
    for orientation in ("below", "above"):
        patch = sine_patch(40, mu=visc.value, orientation=orientation)
        dn, stress, grad = evaluate_traces(flow, pres, visc, patch)
        up = analytic_trace_slopes(grad, patch.gamma_prime)
        dn1, _ = stress_to_dn(stress, patch, u_prime=up)
        inner = patch.interior()
        up_in = (up[0][2:-2], up[1][2:-2])
        stress2, residual = dn_to_stress(dn1, inner, u_prime=up_in)
        assert residual <= 1e-12
        assert np.max(np.abs(stress2.traction.c1.values - stress.traction.c1.values[4:-4])) <= 1e-10
        assert np.max(np.abs(stress2.traction.c2.values - stress.traction.c2.values[4:-4])) <= 1e-10


def test_numerical_conversion_fourth_order():
    flow, pres, visc = FLOWS["trig"], PRESSURES["trig"], VISCOSITIES["variable"]
    errs = []
    for n in (68, 135):
        patch = sine_patch(n, mu=visc.value)
        dn, stress, _ = evaluate_traces(flow, pres, visc, patch)
        got, _ = stress_to_dn(stress, patch)
        errs.append(max(
            np.max(np.abs(got.dnu.c1.values - dn.dnu.c1.values[2:-2])),
            np.max(np.abs(got.dnu.c2.values - dn.dnu.c2.values[2:-2])),
            np.max(np.abs(got.p.values - dn.p.values[2:-2])),
        ))
    h = sine_patch(68).h
    assert errs[0] <= 20.0 * h ** 4
    assert 12.0 <= errs[0] / errs[1] <= 20.0


@given(gp=slope, mu=viscosity, p=entry, a=entry, b=entry, omega=entry)
@settings(max_examples=100)
def test_rigid_motion_traction_is_pressure_times_normal(gp, mu, p, a, b, omega):
    # zero-strain gradient trace of u = (a + omega x2, b - omega x1)
    grad = GradientTrace(0.0, -omega, omega, p)
    t1, t2 = traction_from_gradient(grad, gp, mu)
    nu = normal_at(gp, "below")
    assert abs(t1 + p * nu[0]) <= 1e-13
    assert abs(t2 + p * nu[1]) <= 1e-13


def test_residual_detects_non_divergence_free_data():
    patch = flat_patch(68)
    x = patch.x1
    h = patch.h
    # u = (x1, x2) restricted to the flat boundary; its normal derivative is nu
    dn = CauchyDN(
        VectorTrace.from_arrays(x, np.zeros_like(x), h),
        VectorTrace.from_arrays(np.zeros_like(x), np.ones_like(x), h),
        ScalarTrace(np.zeros_like(x), h),
    )
    _, residual = dn_to_stress(dn, patch)
    assert residual > 0.5


def test_rotation_equivariance():
    angle = 0.7
    flow, pres, visc = FLOWS["trig"], PRESSURES["linear"], VISCOSITIES["variable"]
    patch = sine_patch(48, mu=visc.value)
    dn0, stress0, grad0 = evaluate_traces(flow, pres, visc, patch)
    up0 = analytic_trace_slopes(grad0, patch.gamma_prime)
    out0, _ = stress_to_dn(stress0, patch, u_prime=up0)

    # same physical scene rotated by `angle`: identical local arrays expected
    turned = dataclasses.replace(patch, frame_angle=angle)
    dn1, stress1, grad1 = evaluate_traces(
        rotated_flow(flow, angle), rotated_field(pres, angle),
        rotated_field(visc, angle), turned)
    up1 = analytic_trace_slopes(grad1, turned.gamma_prime)
    out1, _ = stress_to_dn(stress1, turned, u_prime=up1)

    assert np.max(np.abs(out1.dnu.c1.values - out0.dnu.c1.values)) <= 1e-10
    assert np.max(np.abs(out1.dnu.c2.values - out0.dnu.c2.values)) <= 1e-10
    assert np.max(np.abs(out1.p.values - out0.p.values)) <= 1e-10


# The graph-frame forms, a reference for the tangent-normal ones: chained
# formulas, each computing theta on its own, applied to whole arrays with the
# mirror x2 -> -x2 on both orientations.

def chained_traction(f1, f2, f3, f4, gp, m):
    th = np.hypot(1.0, gp)
    q1 = -2.0 * gp * m * f1 + m * f2 + m * f3 + gp * f4
    q2 = -2.0 * m * f1 - gp * m * f2 - gp * m * f3 - f4
    return q1 / th, q2 / th


def chained_normal_derivative(f1, f2, f3, gp):
    th = np.hypot(1.0, gp)
    return (-gp * f1 + f3) / th, (-gp * f2 - f1) / th


def chained_dn_from_stress(gp, mu, gpr, hpr, t1, t2):
    th = np.hypot(1.0, gp)
    th2 = 1.0 + gp * gp
    f3 = (th * (t1 + gp * t2) + 4.0 * mu * gp * gpr
          - mu * (1.0 - gp * gp) * (hpr + gp * gpr)) / (mu * th2 * th2)
    f1 = gpr - gp * f3
    f2 = hpr + gp * f1
    f4 = (th * (gp * t1 - t2) - 2.0 * mu * ((1.0 - gp * gp) * f1 + gp * (f2 + f3))) / th2
    return (*chained_normal_derivative(f1, f2, f3, gp), f4)


def chained_stress_from_dn(gp, mu, gpr, hpr, n1, n2, p):
    th = np.hypot(1.0, gp)
    th2 = 1.0 + gp * gp
    f1 = (gpr - gp * th * n1) / th2
    f3 = th * n1 + gp * f1
    f2 = hpr + gp * f1
    residual = np.abs(-f1 - gp * f2 - th * n2)
    return (*chained_traction(f1, f2, f3, p, gp, mu), residual)


def chained_convert(kernel, patch, u, v1, v2, *rest, u_prime=None):
    s = -1.0 if patch.orientation == "above" else 1.0
    cut = slice(2, -2)
    if u_prime is None:
        gpr, hpr = ((v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * patch.h)
                    for v in (u.c1.values, u.c2.values))
    else:
        gpr, hpr = (np.asarray(v)[cut] for v in u_prime)
    out1, out2, scalar = kernel(s * patch.gamma_prime[cut], patch.mu[cut], gpr, s * hpr,
                                v1[cut], s * v2[cut], *(r[cut] for r in rest))
    return out1, s * out2, scalar


def assert_bitwise(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# Reference for the kernels: the tangent-normal formulas chained on whole
# arrays, with no blocks. The conversions and the oracle must match them bit
# for bit, so blocking changes no bit.

def tn_frame(gp, orientation):
    s = -1.0 if orientation == "above" else 1.0
    c = 1.0 / np.hypot(1.0, gp)
    w = c * gp
    return c, w, -s * w, s * c


def tn_oracle(f1, f2, f3, p, mu, nu1, nu2):
    d1, d2 = f1 * nu1 + f3 * nu2, f2 * nu1 - f1 * nu2
    return (d1, d2, mu * (d1 + f1 * nu1 + f2 * nu2) - p * nu1,
            mu * (d2 + f3 * nu1 - f1 * nu2) - p * nu2)


def tn_dn_from_stress(c, w, nu1, nu2, mu, gpr, hpr, t1, t2):
    ta = c * (c * gpr + w * hpr)
    k = (c * t1 + w * t2) / mu - c * (nu1 * gpr + nu2 * hpr)
    return k * c - ta * nu1, k * w - ta * nu2, -2.0 * mu * ta - nu1 * t1 - nu2 * t2


def tn_stress_from_dn(c, w, nu1, nu2, mu, gpr, hpr, n1, n2, p):
    na = c * (nu1 * gpr + nu2 * hpr)
    nn = nu1 * n1 + nu2 * n2
    q = mu * nn - p
    return (mu * (n1 + na * c) + q * nu1, mu * (n2 + na * w) + q * nu2,
            np.abs(c * (c * gpr + w * hpr) + nn))


def tn_convert(kernel, patch, u, *inputs, u_prime=None):
    cut = slice(2, -2)
    if u_prime is None:
        slopes = ((v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * patch.h)
                  for v in (u.c1.values, u.c2.values))
    else:
        slopes = (np.asarray(v)[cut] for v in u_prime)
    return kernel(*tn_frame(patch.gamma_prime[cut], patch.orientation), patch.mu[cut], *slopes,
                  *(v[cut] for v in inputs))


@pytest.mark.parametrize("orientation", ["below", "above"])
@pytest.mark.parametrize("frame_angle", [0.0, 0.7])
def test_kernels_bitwise_equal_to_chained_formulas(frame_angle, orientation):
    flow, pressure, visc = FLOWS["trig"], PRESSURES["trig"], VISCOSITIES["variable"]
    patch = dataclasses.replace(
        sine_patch(2 ** 20, amplitude=0.8, lo=-3.0, hi=3.0, orientation=orientation),
        frame_angle=frame_angle)
    patch = dataclasses.replace(patch, mu=visc.value(*patch.nodes_global().T))
    dn, stress, grad = evaluate_traces(flow, pressure, visc, patch)

    gp = patch.gamma_prime
    _, _, nu1, nu2 = tn_frame(gp, orientation)
    for got, want in zip((*dn.dnu.stacked().T, *stress.traction.stacked().T),
                         tn_oracle(grad.f1, grad.f2, grad.f3, grad.f4, patch.mu, nu1, nu2)):
        assert_bitwise(got, want)

    for u_prime in (None, analytic_trace_slopes(grad, gp)):
        converted, zero = stress_to_dn(stress, patch, u_prime=u_prime)
        d1, d2, p = tn_convert(tn_dn_from_stress, patch, stress.u,
                               *stress.traction.stacked().T, u_prime=u_prime)
        assert zero == 0.0
        for got, want in ((converted.dnu.c1.values, d1), (converted.dnu.c2.values, d2),
                          (converted.p.values, p)):
            assert_bitwise(got, want)

        converted, residual = dn_to_stress(dn, patch, u_prime=u_prime)
        t1, t2, res = tn_convert(tn_stress_from_dn, patch, dn.u,
                                 *dn.dnu.stacked().T, dn.p.values, u_prime=u_prime)
        assert residual == float(np.max(res))
        for got, want in ((converted.traction.c1.values, t1), (converted.traction.c2.values, t2)):
            assert_bitwise(got, want)


@pytest.mark.parametrize("orientation", ["below", "above"])
@pytest.mark.parametrize("frame_angle", [0.0, 0.7])
def test_tangent_normal_forms_agree_with_graph_frame_forms(frame_angle, orientation):
    # stress to dn agrees at roundoff; dn to stress is overdetermined, so its
    # two forms read the slopes differently and agree at truncation level
    for triple in builtin_catalog():
        patch = dataclasses.replace(sine_patch(65, orientation=orientation),
                                    frame_angle=frame_angle)
        patch = dataclasses.replace(patch, mu=triple.viscosity.value(*patch.nodes_global().T))
        dn, stress, _ = evaluate_traces(triple.flow, triple.pressure, triple.viscosity, patch)
        bound = transform.tolerance(patch, dn, stress.traction)[1]

        new, _ = stress_to_dn(stress, patch)
        old = chained_convert(chained_dn_from_stress, patch, stress.u, *stress.traction.stacked().T)
        new_st, _ = dn_to_stress(dn, patch)
        old_st = chained_convert(chained_stress_from_dn, patch, dn.u, *dn.dnu.stacked().T,
                                 dn.p.values)
        deviation = max_abs_diff(*zip((*new.dnu.stacked().T, new.p.values), old),
                                 *zip(new_st.traction.stacked().T, old_st[:2]))
        assert deviation <= bound, triple.name


def random_trace_free_nodes(rng, n, orientation):
    """Nodes with |gamma'| log-spaced from 1 to 1e300 and exact data of random gradients.

    Returns the patch, the float64 inputs (exact slopes g', h', traction,
    normal derivative, pressure) and the exact outputs in long double.
    """
    ld = np.longdouble
    gp = rng.choice([-1.0, 1.0], n) * np.logspace(0.0, 300.0, n)
    mu = rng.uniform(0.1, 10.0, n)
    f1, f2, f3, p = (v.astype(ld) for v in rng.uniform(-1.0, 1.0, (4, n)))
    x1, _ = uniform_grid(-1.0, 1.0, n)
    patch = BoundaryPatch(0.0, x1, np.zeros(n), gp, mu, orientation)
    s = -1.0 if orientation == "above" else 1.0
    g, m = gp.astype(ld), mu.astype(ld)
    th = np.hypot(ld(1.0), g)
    nu1, nu2 = -s * g / th, s / th
    exact = {"gpr": f1 + g * f3, "hpr": f2 - g * f1,
             "dnu1": f1 * nu1 + f3 * nu2, "dnu2": f2 * nu1 - f1 * nu2, "p": p,
             "t1": (2 * m * f1 - p) * nu1 + m * (f2 + f3) * nu2,
             "t2": m * (f2 + f3) * nu1 - (2 * m * f1 + p) * nu2}
    return patch, {k: v.astype(float) for k, v in exact.items()}, exact


@pytest.mark.parametrize("orientation", ["below", "above"])
def test_conversions_exact_at_any_slope(orientation):
    rng = np.random.default_rng(23)
    n = 2000
    patch, data, exact = random_trace_free_nodes(rng, n, orientation)
    h, cut = patch.h, slice(2, -2)
    u = VectorTrace.from_arrays(np.zeros(n), np.zeros(n), h)
    u_prime = (data["gpr"], data["hpr"])

    dn, _ = stress_to_dn(CauchyStress(u, VectorTrace.from_arrays(data["t1"], data["t2"], h)),
                         patch, u_prime=u_prime)
    got = np.stack([dn.dnu.c1.values, dn.dnu.c2.values, dn.p.values])
    want = np.stack([exact["dnu1"], exact["dnu2"], exact["p"]])[:, cut]
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.isfinite(got))
    assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-13 * scale)

    st, residual = dn_to_stress(CauchyDN(u, VectorTrace.from_arrays(data["dnu1"], data["dnu2"], h),
                                         ScalarTrace(data["p"], h)), patch, u_prime=u_prime)
    got = st.traction.stacked().T
    want = np.stack([exact["t1"], exact["t2"]])[:, cut]
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.isfinite(got)) and np.isfinite(residual)
    assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-13 * scale)
    data_scale = max(float(np.max(np.abs(data[k]))) for k in ("dnu1", "dnu2", "p"))
    assert residual <= 1e-13 * data_scale


@pytest.mark.parametrize("orientation", ["below", "above"])
@pytest.mark.parametrize("consistent", [True, False])
def test_residual_is_graph_frame_residual_over_theta_squared(orientation, consistent):
    rng = np.random.default_rng(29)
    n = 64
    x1, h = uniform_grid(-1.0, 1.0, n)
    gp = rng.uniform(-5.0, 5.0, n)
    patch = BoundaryPatch(0.0, x1, np.zeros(n), gp, rng.uniform(0.1, 10.0, n), orientation)
    grad = GradientTrace(*rng.uniform(-3.0, 3.0, (3, n)), np.zeros(n))
    gpr, hpr = analytic_trace_slopes(grad, gp)
    sign = -1.0 if orientation == "above" else 1.0
    if consistent:
        n1, n2 = (sign * v for v in normal_derivative_from_gradient(grad, gp))
    else:
        n1, n2 = rng.uniform(-3.0, 3.0, (2, n))
    zero, p = np.zeros(n), rng.uniform(-3.0, 3.0, n)

    # the graph-frame residual |f1 + gamma' f2 + theta n2|, in the mirror frame
    g, th = sign * gp, theta(gp)
    f1 = (gpr - g * th * n1) / (1.0 + g * g)
    f2 = sign * hpr + g * f1
    graph_residual = np.abs(f1 + g * f2 + th * sign * n2)

    for i in range(2, n - 2):  # one interior node per patch
        window = slice(i - 2, i + 3)
        node = BoundaryPatch(0.0, x1[window], zero[window], gp[window], patch.mu[window],
                             orientation)
        dn = CauchyDN(VectorTrace.from_arrays(zero[window], zero[window], h),
                      VectorTrace.from_arrays(n1[window], n2[window], h),
                      ScalarTrace(p[window], h))
        _, residual = dn_to_stress(dn, node, u_prime=(gpr[window], hpr[window]))
        scale = max(1.0, abs(gpr[i]), abs(hpr[i]), abs(n1[i]), abs(n2[i])) * th[i] ** 2
        assert abs(th[i] ** 2 * residual - graph_residual[i]) <= 1e-14 * scale


def test_residual_of_flat_non_divergence_free_data_is_two():
    # criterion 8's data: u = (x1, 0) and dnu = (0, 1) give divergence 1 + 1
    patch = flat_patch(68)
    x, h = patch.x1, patch.h
    dn = CauchyDN(VectorTrace.from_arrays(x, np.zeros_like(x), h),
                  VectorTrace.from_arrays(np.zeros_like(x), np.ones_like(x), h),
                  ScalarTrace(np.zeros_like(x), h))
    assert dn_to_stress(dn, patch)[1] == 2.0


def test_oracle_uses_no_transform_formula(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached a transform formula")

    # every function of transform, and any the oracle's module imported by name
    patched = set()
    for module in (transform, manufactured):
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value.__module__ == transform.__name__:
                monkeypatch.setattr(module, name, forbidden)
                patched.add(name)
    assert {"stress_to_dn", "dn_to_stress", "traction_from_gradient"} <= patched
    flow, pres, visc = FLOWS["trig"], PRESSURES["trig"], VISCOSITIES["variable"]
    for orientation in ("below", "above"):
        patch = sine_patch(40, mu=visc.value, orientation=orientation)
        dn, stress, _ = evaluate_traces(flow, pres, visc, patch)
        assert np.all(np.isfinite(dn.dnu.stacked()))
        assert np.all(np.isfinite(stress.traction.stacked()))


@pytest.mark.parametrize("residual", [False, True])
@pytest.mark.parametrize("n", [8, 9, 64, 2 ** 15 + 3])
def test_tolerance_extends_each_difference_order_bitwise(n, residual):
    flow, pressure, viscosity = FLOWS["trig"], PRESSURES["trig"], VISCOSITIES["variable"]
    patch = sine_patch(n)
    patch = dataclasses.replace(patch, mu=viscosity.value(*patch.nodes_global().T))
    dn, stress, _ = evaluate_traces(flow, pressure, viscosity, patch)
    arrays = (*dn.dnu.stacked().T, dn.p.values, *stress.traction.stacked().T)
    # a wave of half a radian a node that the stencil cannot resolve: the truncation term is > 0
    wave = 1e-3 * np.sin(0.5 * np.arange(n) + np.array([[0.0], [1.0]]))
    for u1, u2 in (dn.u.stacked().T, dn.u.stacked().T + wave):
        data = CauchyDN(VectorTrace.from_arrays(u1, u2, patch.h), dn.dnu, dn.p)
        # the residual reads (u, dnu, p); the deviation reads t too, with mu's gain
        got = transform.tolerance(patch, data, stress.traction)
        assert transform.tolerance(patch, data) == got[:1]
        want = tolerance_by_fresh_differences(patch, u1, u2, *(arrays[:3] if residual else arrays),
                                              residual=residual)
        assert got[0 if residual else 1] == want
